package backend

import "testing"

func TestOptionsGetLastWins(t *testing.T) {
	o := Options{Opt("grid", "5x5"), Opt("grid", "8x8")}
	v, ok := o.Get("grid")
	if !ok || v != "8x8" {
		t.Fatalf("Get(grid) = %q, %v; want 8x8, true", v, ok)
	}
	if _, ok := o.Get("missing"); ok {
		t.Fatal("Get(missing) reported present")
	}
}

func TestOptionsStringCanonical(t *testing.T) {
	o := Options{Opt("b", "2"), Opt("a", "1"), Opt("b", "3")}
	if got := o.String(); got != "a=1,b=3" {
		t.Fatalf("String() = %q, want %q", got, "a=1,b=3")
	}
	if got := (Options{}).String(); got != "" {
		t.Fatalf("empty String() = %q, want empty", got)
	}
}
