package core

import (
	"reflect"
	"testing"
)

// TestStatsSince: every event counter is differenced and the two
// high-water marks are kept, field by field, so a counter added to Stats
// but not to Since fails here.
func TestStatsSince(t *testing.T) {
	var end, start Stats
	ev, sv := reflect.ValueOf(&end).Elem(), reflect.ValueOf(&start).Elem()
	for i := range ev.NumField() {
		switch ev.Field(i).Kind() {
		case reflect.Uint64:
			ev.Field(i).SetUint(uint64(1000 + 3*i))
			sv.Field(i).SetUint(uint64(i))
		case reflect.Int:
			ev.Field(i).SetInt(int64(500 + i))
			sv.Field(i).SetInt(int64(7 + i))
		default:
			t.Fatalf("Stats.%s has kind %s; Since handles uint64 counters and int high-water marks",
				ev.Type().Field(i).Name, ev.Field(i).Kind())
		}
	}
	got := reflect.ValueOf(end.Since(start))
	for i := range ev.NumField() {
		name := ev.Type().Field(i).Name
		switch f := got.Field(i); f.Kind() {
		case reflect.Uint64:
			if want := uint64(1000 + 2*i); f.Uint() != want {
				t.Errorf("Since: %s = %d, want the difference %d", name, f.Uint(), want)
			}
		case reflect.Int:
			if want := int64(500 + i); f.Int() != want {
				t.Errorf("Since: high-water mark %s = %d, want the whole run's %d", name, f.Int(), want)
			}
		}
	}
}

// TestRunStatsCoverTheCall: a second Run's Stats cover only its own
// cycles, so a warmup-then-measure caller reads the window's counters,
// and the two calls' counters add up to one uninterrupted run's.
func TestRunStatsCoverTheCall(t *testing.T) {
	prog := missChaseProgram(20_000, true)
	c := MustNew(MegaConfig(), KindSTTRename, prog)
	warm, err := c.Run(RunLimits{MaxCycles: 4_000})
	if err != nil {
		t.Fatal(err)
	}
	res, err := c.Run(RunLimits{MaxCycles: 12_000})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Cycles != res.Cycles-warm.Cycles || res.Stats.Committed != res.Insts-warm.Insts {
		t.Errorf("window Stats cycles/committed = %d/%d, want %d/%d",
			res.Stats.Cycles, res.Stats.Committed, res.Cycles-warm.Cycles, res.Insts-warm.Insts)
	}
	whole, err := MustNew(MegaConfig(), KindSTTRename, prog).Run(RunLimits{MaxCycles: 12_000})
	if err != nil {
		t.Fatal(err)
	}
	if got := whole.Stats.Since(warm.Stats); got != res.Stats {
		t.Errorf("split run's window differs from the whole run minus its warmup:\nsplit %+v\nwhole %+v", res.Stats, got)
	}
	if c.Stats != whole.Stats {
		t.Error("Core.Stats must keep counting across Run calls")
	}
}
