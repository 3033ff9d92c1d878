package serve

import (
	"context"
	"os"
	"sort"
	"strings"
	"testing"
	"time"

	"distda/internal/artifact"
	"distda/internal/ir"
	"distda/internal/workloads"
)

// keyGolden pins the content addresses a served run job produces: the
// result key (the job's "key"), and the compiled-artifact and bytecode
// program keys its cell stores. Every -cache-dir file is named by one of
// them, so a changed key silently turns every cache directory — across
// restarts and across machines that share it — into misses. The values
// were recorded before planning moved to the once-per-process workload
// table and must not change without a format version bump.
var keyGolden = []struct {
	spec          JobSpec
	customKernel  bool // Kernel: the built-in's ir.Format text
	result        string
	artifact, prg string
}{
	// Every workload at test scale on the default Dist-DA-F.
	{spec: JobSpec{Workload: "disparity"},
		result:   "69fdd0452d6daf20cb923c89a504749f816480f799a6291d56b2d7998b11d710",
		artifact: "e77dfed298868520c3be656d35b4b13eba6a5e4c5bb4537eb63ba8c00d80dd8e",
		prg:      "76d809c3271039ef79828f799a373beb13ee7d255b9473cb69de9581b8b62dc7"},
	{spec: JobSpec{Workload: "tracking"},
		result:   "3f1605dc9e9b35665493f7d3e20da48e9be82f8618bdc715d9a9559f91c1d2d5",
		artifact: "1dc13a4cd5289e907ff95b882e6d8e4e6b6ab8b97916dfdd876570f3b4746239",
		prg:      "2ebc91bcd851b848f79a0153835131494670b02385ace83e4dc3f8c3788b29a1"},
	{spec: JobSpec{Workload: "adi"},
		result:   "14c934d54c055427c1fcb4bd727173c4170adcce460c204f7440ba768fbb5bac",
		artifact: "79877d4b33ae1711608ccb56c6e54ff6561df8b3b88344f83e6e927d1f636a5e",
		prg:      "df570c0fa611efee680c61ebf55e039b789f3db496751807723d6023c0eceae8"},
	{spec: JobSpec{Workload: "fdtd-2d"},
		result:   "b487bc0ac06723d0e086f6d88a51123b77e0f69724ef278bbb3932ec361fb56d",
		artifact: "01c76a6b5e8c5f8f0eb9f922b7c1675f9351739ea9b8c53377fae1132777f5a7",
		prg:      "65ab9126a3a5ff4eed72b7f4ea4be905cb28de29a5e2c5b7642e002e7d391e2d"},
	{spec: JobSpec{Workload: "cholesky"},
		result:   "93bfc2d551dc8c23a21bf5ce4e5dc00dac0a49ba10630f3a9afa6d22d9cf5cb4",
		artifact: "08d5ffbb35173c779b9556526630eb7619759966168b3d7a1faf39b021884a38",
		prg:      "0f1678908ae3c93df6d69b7010d50099ccef7e810215fc928d21b41bc7240c82"},
	{spec: JobSpec{Workload: "seidel-2d"},
		result:   "e8181b274c204393759d5ce7bc35e766664b96b85ffac118c84970e21c0332d8",
		artifact: "b5a3aee8d6b340bd2681d58070b229ca73bccffdcba94c4849625763593e113d",
		prg:      "0048a9d7fe54a3b866674501be7a6accbc6ccbd1b1592e680b7e44e61d39f2a0"},
	{spec: JobSpec{Workload: "pathfinder"},
		result:   "d18f968bb650172d2d0a7c1c8ff0e49a493a5dbd28344cd0a954e725f1f22bda",
		artifact: "d640e50d8599fd1b8d50fcc70fb9366e9aee667cfe6a9912a2cb37f8dd982140",
		prg:      "1cb3d21178192b4a5098bb2f07ecde2351f81e1ea6f9e2c05dc9ea37ef4ebc01"},
	{spec: JobSpec{Workload: "nw"},
		result:   "02686a7b659668b4180477b7be9111011fbae82c651f38afae8ab61465b344c7",
		artifact: "51249bf56de6046f466b0f9b4fe67c21450786eab9b438f676a0ce3bc5644beb",
		prg:      "c23908753e9b494583cbea73fcfc0a9891e985bba1372ab5460225a844e774db"},
	{spec: JobSpec{Workload: "bfs"},
		result:   "6eb794932b3839c6914b96edd99aa418997568ca2579f3631b649936bc76778a",
		artifact: "600c8fed919bebaa58473fd237edd0d798a6383175cf729a68c55ec24440c112",
		prg:      "9bfa85185d76a1fd76feb8f2c354ddbfdda91b3acc379552225ae4ff520fde11"},
	{spec: JobSpec{Workload: "pagerank"},
		result:   "4b096e56a7ee6ea302f238330e2a7a4da2510d2e12462b5fa853f8a4e75d2a63",
		artifact: "b40c92e8318c479128fe18b6ceda43befdd2b0c470fd37d3ef9c6b4f08ee60ea",
		prg:      "946576a4831143fcdad16ffe3ce830e91730957307276f0a3dc3204f3beb375c"},
	{spec: JobSpec{Workload: "pointer-chase"},
		result:   "495c8fc81d526771df9a3de57e646a78f87754d0f5ae730a4af09adc56ee86b7",
		artifact: "856f5d7184032918b0ba1904b6378e0379d1a1a6ffd450d3d03ec72290fecb90",
		prg:      "89e49134f5963c354b9d1f24ca1030fe034f83bb33dcd9fcf380ebcfb67bd1e3"},
	{spec: JobSpec{Workload: "pca"},
		result:   "f592fe9e9085ba02598f8021c3b05c39b5bd0b16bdf0cff0b2ca8c54d7a7efb2",
		artifact: "5315be4a42cb0a69ae0cd8bff8739573f105d45a9a244fea007a1076b07407d0",
		prg:      "06eb6f0822731fb0f5ec766d7f4aaf3208611ef8e8cd5f5197ac4f59ed7bd2df"},
	{spec: JobSpec{Workload: "spmv"},
		result:   "f629c81572ff0ac9f696e6a1ac1dbf81833d2ac6cc2c37746439ebd6f5dd6c41",
		artifact: "c8a6932b371868efd752349f0dec613b2dcd2357b33a6e97462b88cd99f48333",
		prg:      "f521691b5dd100ce96a630c42be5e1b59d5542a497d1060ba8391793709d5ed8"},
	{spec: JobSpec{Workload: "bfs-mt"},
		result:   "77a1e230fe25e780adae66a42a330442f10e3207ea244fccf3fdaa9f5897917c",
		artifact: "d5b6d004faf1fca6fe48fb9928a9352f7dd41e6d52c512d0fa793fb85875febd",
		prg:      "97f601b23966acc55ee7167ac5979c112808ca3f6d76665a0117326e9fd6f02a"},
	{spec: JobSpec{Workload: "pathfinder-mt"},
		result:   "7de5b8b665885c6d853a77d550fd0bb27414fa690553a8be0f173ee74d8d684b",
		artifact: "31cb5d019f95e9ec1f4698ac4201d6208d27b23647d87603052bdd79922d7704",
		prg:      "267662fb707d8d67257e06f41836c7d6eb11668b5a0b0008bcfe425492d9011e"},
	// One override each; the custom kernel is the built-in text, so it
	// shares every key with the plain fdtd-2d job.
	{spec: JobSpec{Workload: "fdtd-2d", GHz: 3},
		result:   "3b17c98ac0e2d6f3c7e3a40a0116423ced6afde25ffe6c0cd83bd88c13fd802a",
		artifact: "01c76a6b5e8c5f8f0eb9f922b7c1675f9351739ea9b8c53377fae1132777f5a7",
		prg:      "65ab9126a3a5ff4eed72b7f4ea4be905cb28de29a5e2c5b7642e002e7d391e2d"},
	{spec: JobSpec{Workload: "bfs-mt", Threads: 4},
		result:   "6ca043e8cb884d1d2b5e9b0c6fa90ac18021507fc68006e84b06fd34fad0e2d8",
		artifact: "9b2b55b8c2650b7227bf158178153377928acaf1e1cf7aa3d6779e9cb4a3467f",
		prg:      "e838a46829fe57f187ff917f4dcca5b7664ed16388f520120c3e1f5c3627d20e"},
	{spec: JobSpec{Workload: "fdtd-2d", Params: map[string]float64{"T": 1}},
		result:   "9ce7be80af8adffcdb7cb7dd8d6e2adc1dd6449c28adf9230021d42b2049b78b",
		artifact: "01c76a6b5e8c5f8f0eb9f922b7c1675f9351739ea9b8c53377fae1132777f5a7",
		prg:      "65ab9126a3a5ff4eed72b7f4ea4be905cb28de29a5e2c5b7642e002e7d391e2d"},
	{spec: JobSpec{Workload: "fdtd-2d"}, customKernel: true,
		result:   "b487bc0ac06723d0e086f6d88a51123b77e0f69724ef278bbb3932ec361fb56d",
		artifact: "01c76a6b5e8c5f8f0eb9f922b7c1675f9351739ea9b8c53377fae1132777f5a7",
		prg:      "65ab9126a3a5ff4eed72b7f4ea4be905cb28de29a5e2c5b7642e002e7d391e2d"},
}

// TestKeyStability runs each golden spec on a fresh disk-backed server and
// compares the job's key and the artifact and program files its run wrote.
func TestKeyStability(t *testing.T) {
	for _, g := range keyGolden {
		spec := g.spec
		spec.Scale = "test"
		name := spec.Workload
		if g.customKernel {
			w, err := workloads.ByName(spec.Workload, workloads.ScaleTest)
			if err != nil {
				t.Fatal(err)
			}
			spec.Kernel = ir.Format(w.Kernel)
			name += "/kernel"
		}
		dir := t.TempDir()
		s, err := NewServer(Config{Workers: 1, Cache: artifact.New(artifact.Config{Dir: dir})})
		if err != nil {
			t.Fatal(err)
		}
		j, err := s.Submit(spec)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		select {
		case <-j.Done():
		case <-time.After(60 * time.Second):
			t.Fatalf("%s: job did not finish", name)
		}
		if _, state, msg := s.Result(j); state != StateDone {
			t.Fatalf("%s: state %s (%s)", name, state, msg)
		}
		s.Shutdown(context.Background())
		got := s.Status(j).Key
		art, prg := keysIn(t, dir, ".artifact.gob"), keysIn(t, dir, ".program.gob")
		if got != g.result || art != g.artifact || prg != g.prg {
			t.Errorf("%+v (custom kernel %t):\n result   %s, want %s\n artifact %s, want %s\n program  %s, want %s",
				g.spec, g.customKernel, got, g.result, art, g.artifact, prg, g.prg)
		}
	}
}

// keysIn returns the keys of the files in dir with the given suffix,
// comma-separated in sorted order.
func keysIn(t *testing.T, dir, suffix string) string {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var keys []string
	for _, e := range ents {
		if k, ok := strings.CutSuffix(e.Name(), suffix); ok {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	return strings.Join(keys, ",")
}
