package core

// Test-only accessors, visible to the external core_test package within
// this test binary. The fault-injection switches sabotage exactly the
// mechanism each scheme's security argument rests on, so the differential
// oracle's mutation tests (mutation_test.go) can prove its invariants
// actually bite.

// setForTest sets a fault-injection switch and returns its restore func.
func setForTest(sw *bool, v bool) (restore func()) {
	prev := *sw
	*sw = v
	return func() { *sw = prev }
}

// SetDoMDelayDisabledForTest disables Delay-on-Miss's speculative-miss
// delay, degrading dom to baseline behaviour. Returns a restore func.
func SetDoMDelayDisabledForTest(v bool) (restore func()) {
	return setForTest(&domDelayDisabled, v)
}

// SetInvisiBufferDisabledForTest disables InvisiSpec's speculative buffer,
// degrading invisispec to baseline behaviour. Returns a restore func.
func SetInvisiBufferDisabledForTest(v bool) (restore func()) {
	return setForTest(&invisiBufferDisabled, v)
}

// SetNDADelayDisabledForTest disables NDA's withheld load broadcast, so
// speculative loads wake their dependents at writeback. Returns a restore
// func.
func SetNDADelayDisabledForTest(v bool) (restore func()) {
	return setForTest(&ndaDelayDisabled, v)
}

// SetSTTVetoDisabledForTest disables both STT variants' taint veto, so
// tainted transmitters issue. Returns a restore func.
func SetSTTVetoDisabledForTest(v bool) (restore func()) {
	return setForTest(&sttVetoDisabled, v)
}
