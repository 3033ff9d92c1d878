package obs

import (
	"bufio"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
)

// ContentType is the Prometheus text exposition format content type.
const ContentType = "text/plain; version=0.0.4; charset=utf-8"

// WritePrometheus renders the registry in the Prometheus text exposition
// format. The output is deterministic: families sort by name, series sort
// by their label-value tuple, labels render in registration order, and
// every family gets HELP and TYPE lines. A nil registry writes nothing
// (a valid, empty exposition).
func (r *Registry) WritePrometheus(w io.Writer) error {
	if r == nil {
		return nil
	}
	bw := bufio.NewWriter(w)

	r.mu.Lock()
	fams := make([]*family, 0, len(r.fam))
	for _, f := range r.fam {
		fams = append(fams, f)
	}
	r.mu.Unlock()
	sort.Slice(fams, func(i, j int) bool { return fams[i].name < fams[j].name })

	for _, f := range fams {
		f.mu.Lock()
		ser := make([]*series, 0, len(f.series))
		for _, s := range f.series {
			ser = append(ser, s)
		}
		f.mu.Unlock()
		if len(ser) == 0 {
			continue
		}
		sort.Slice(ser, func(i, j int) bool {
			a, b := ser[i].values, ser[j].values
			for k := range a {
				if a[k] != b[k] {
					return a[k] < b[k]
				}
			}
			return false
		})
		fmt.Fprintf(bw, "# HELP %s %s\n", f.name, escapeHelp(f.help))
		fmt.Fprintf(bw, "# TYPE %s %s\n", f.name, f.kind)
		for _, s := range ser {
			switch f.kind {
			case KindCounter:
				fmt.Fprintf(bw, "%s%s %d\n", f.name, labelSet(f.labels, s.values, "", ""), s.c.Value())
			case KindGauge:
				fmt.Fprintf(bw, "%s%s %s\n", f.name, labelSet(f.labels, s.values, "", ""),
					formatFloat(s.g.Value()))
			case KindHistogram:
				var cum int64
				for i, b := range f.bounds {
					cum += s.h.buckets[i].Load()
					fmt.Fprintf(bw, "%s_bucket%s %d\n", f.name,
						labelSet(f.labels, s.values, "le", formatFloat(b)), cum)
				}
				cum += s.h.buckets[len(f.bounds)].Load()
				fmt.Fprintf(bw, "%s_bucket%s %d\n", f.name,
					labelSet(f.labels, s.values, "le", "+Inf"), cum)
				fmt.Fprintf(bw, "%s_sum%s %s\n", f.name, labelSet(f.labels, s.values, "", ""),
					formatFloat(s.h.Sum()))
				fmt.Fprintf(bw, "%s_count%s %d\n", f.name, labelSet(f.labels, s.values, "", ""), cum)
			}
		}
	}
	return bw.Flush()
}

// labelSet renders `{n1="v1",n2="v2"}` (empty string when there are no
// labels). extraName/extraValue append one more pair (the histogram `le`).
func labelSet(names, values []string, extraName, extraValue string) string {
	if len(names) == 0 && extraName == "" {
		return ""
	}
	var b strings.Builder
	b.WriteByte('{')
	for i, n := range names {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(n)
		b.WriteString(`="`)
		b.WriteString(escapeLabel(values[i]))
		b.WriteByte('"')
	}
	if extraName != "" {
		if len(names) > 0 {
			b.WriteByte(',')
		}
		b.WriteString(extraName)
		b.WriteString(`="`)
		b.WriteString(escapeLabel(extraValue))
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

// escapeHelp escapes a HELP text: backslash and newline.
func escapeHelp(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	return strings.ReplaceAll(s, "\n", `\n`)
}

// escapeLabel escapes a label value: backslash, double quote, newline.
func escapeLabel(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	s = strings.ReplaceAll(s, `"`, `\"`)
	return strings.ReplaceAll(s, "\n", `\n`)
}

// formatFloat renders a float the shortest way that round-trips.
func formatFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// ParseText parses and validates a Prometheus text exposition, returning
// every sample keyed by its series string exactly as exposed — name plus
// label set, e.g. `distda_jobs_total{outcome="done",tenant="anonymous"}`.
// It enforces the format rules the tests and the smoke client rely on:
// valid metric and label names, HELP/TYPE comment syntax, at most one TYPE
// per family declared before its samples, parseable sample values, and no
// duplicate series.
func ParseText(r io.Reader) (map[string]float64, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64*1024), 4*1024*1024)
	out := map[string]float64{}
	typed := map[string]string{}
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := sc.Text()
		if strings.TrimSpace(line) == "" {
			continue
		}
		if strings.HasPrefix(line, "#") {
			rest := strings.TrimPrefix(line, "#")
			rest = strings.TrimPrefix(rest, " ")
			fields := strings.SplitN(rest, " ", 3)
			switch fields[0] {
			case "TYPE":
				if len(fields) < 3 {
					return nil, fmt.Errorf("obs: line %d: malformed TYPE comment", lineNo)
				}
				name, kind := fields[1], strings.TrimSpace(fields[2])
				if err := checkName(name); err != nil {
					return nil, fmt.Errorf("obs: line %d: %v", lineNo, err)
				}
				switch kind {
				case "counter", "gauge", "histogram", "summary", "untyped":
				default:
					return nil, fmt.Errorf("obs: line %d: unknown TYPE %q", lineNo, kind)
				}
				if _, dup := typed[name]; dup {
					return nil, fmt.Errorf("obs: line %d: duplicate TYPE for %s", lineNo, name)
				}
				typed[name] = kind
			case "HELP":
				if len(fields) < 2 {
					return nil, fmt.Errorf("obs: line %d: malformed HELP comment", lineNo)
				}
				if err := checkName(fields[1]); err != nil {
					return nil, fmt.Errorf("obs: line %d: %v", lineNo, err)
				}
			default:
				// Plain comment: ignored.
			}
			continue
		}
		key, value, err := parseSample(line)
		if err != nil {
			return nil, fmt.Errorf("obs: line %d: %v", lineNo, err)
		}
		if _, dup := out[key]; dup {
			return nil, fmt.Errorf("obs: line %d: duplicate series %s", lineNo, key)
		}
		out[key] = value
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return out, nil
}

// parseSample parses one `name{labels} value [timestamp]` line.
func parseSample(line string) (key string, value float64, err error) {
	nameEnd := strings.IndexAny(line, "{ \t")
	if nameEnd < 0 {
		return "", 0, fmt.Errorf("sample without value: %q", line)
	}
	name := line[:nameEnd]
	if err := checkName(name); err != nil {
		return "", 0, err
	}
	rest := line[nameEnd:]
	labels := ""
	if rest[0] == '{' {
		end, err := scanLabels(rest)
		if err != nil {
			return "", 0, err
		}
		labels = rest[:end]
		rest = rest[end:]
	}
	fields := strings.Fields(rest)
	if len(fields) < 1 || len(fields) > 2 {
		return "", 0, fmt.Errorf("malformed sample %q", line)
	}
	v, err := strconv.ParseFloat(fields[0], 64)
	if err != nil {
		return "", 0, fmt.Errorf("bad sample value %q: %v", fields[0], err)
	}
	if len(fields) == 2 {
		if _, err := strconv.ParseInt(fields[1], 10, 64); err != nil {
			return "", 0, fmt.Errorf("bad sample timestamp %q", fields[1])
		}
	}
	return name + labels, v, nil
}

// scanLabels validates a `{n="v",...}` label set starting at s[0] == '{'
// and returns the index just past the closing brace.
func scanLabels(s string) (int, error) {
	i := 1
	for {
		if i >= len(s) {
			return 0, fmt.Errorf("unterminated label set")
		}
		if s[i] == '}' {
			return i + 1, nil
		}
		// Label name.
		j := i
		for j < len(s) && s[j] != '=' {
			j++
		}
		if j >= len(s) {
			return 0, fmt.Errorf("label without value")
		}
		if err := checkName(s[i:j]); err != nil {
			return 0, err
		}
		if strings.Contains(s[i:j], ":") {
			return 0, fmt.Errorf("invalid label name %q", s[i:j])
		}
		i = j + 1
		if i >= len(s) || s[i] != '"' {
			return 0, fmt.Errorf("unquoted label value")
		}
		i++
		for {
			if i >= len(s) {
				return 0, fmt.Errorf("unterminated label value")
			}
			if s[i] == '\\' {
				i += 2
				continue
			}
			if s[i] == '"' {
				i++
				break
			}
			i++
		}
		if i < len(s) && s[i] == ',' {
			i++
		}
	}
}
