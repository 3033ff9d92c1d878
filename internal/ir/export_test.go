package ir

// Exports for the external tests in package ir_test, which can import the
// workloads (package ir's own tests cannot: workloads imports ir). Run,
// the tree-walk reference interpreter, needs no alias here: it is defined
// exported in interp_oracle_test.go, part of package ir only in tests.

// NumOpCodes is one past the last defined opcode.
const NumOpCodes = numOpCodes

// VMKernel is the small kernel vm_test.go exercises every form with, and
// VMInputs its parameters and memory.
var VMKernel, VMInputs = vmKernel, vmInputs

// FuzzCorpusSeeds is the number of seeds TestVMFuzzCorpus sweeps.
const FuzzCorpusSeeds = fuzzCorpusSeeds

// CorpusKernel returns the fuzz corpus's kernel and inputs for seed; ok is
// false when the kernel would run past the corpus's iteration budget.
func CorpusKernel(seed int64) (k *Kernel, params map[string]float64, mem map[string][]float64, ok bool) {
	k, params, mem = genKernel(seed)
	return k, params, mem, withinBudget(k, params, mem)
}

// MemBitsEqual compares stored data bit for bit, so equal NaNs match;
// ErrText is an error's text, "" for nil.
var MemBitsEqual, ErrText = memBitsEqual, errText

// HookEvent is one recorded hook callback, and RecordingHooks the hooks
// that append every event to a log.
type HookEvent = hookEvent

var RecordingHooks = recordingHooks
