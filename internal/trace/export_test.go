package trace

// SetMmapDisabledForTest force-disables (or re-enables) mmap so tests
// can exercise OpenMapped's io fallback path deterministically.
func SetMmapDisabledForTest(v bool) { mmapDisabled.Store(v) }

// SampleTrace and ErrClass share the fuzz target's seed trace and error
// classifier with the external codec tests.
var (
	SampleTrace = sampleTrace
	ErrClass    = errClass
)
