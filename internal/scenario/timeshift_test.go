package scenario

import (
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/sim"
)

// TestLateStartShiftsOnlyTimestamps is the time-shift relation under oracle
// state: starting a flow Δ later moves its Start and End by exactly Δ and
// changes nothing else, not a counter and not a delivery count. Δ = 460 s
// puts the first packet past the sweep at 450 s, so the sink ExpectFlow
// registered has been idle longer than the flow timeout when the sweep
// runs; the sweep must leave it to the application, or the first packet
// builds a fresh sink that verifies nothing and reports no file size.
func TestLateStartShiftsOnlyTimestamps(t *testing.T) {
	base, err := Load(filepath.Join(specDir, "more-testbed-single.json"))
	if err != nil {
		t.Fatal(err)
	}
	want, err := Run(base)
	if err != nil {
		t.Fatal(err)
	}
	if !want.Done() {
		t.Fatal("the unshifted flow did not complete")
	}
	for _, shiftS := range []float64{300, 460} {
		spec, err := Load(filepath.Join(specDir, "more-testbed-single.json"))
		if err != nil {
			t.Fatal(err)
		}
		spec.Flows[0].StartS += shiftS
		got, err := Run(spec)
		if err != nil {
			t.Fatal(err)
		}
		shift := sim.Time(shiftS * float64(sim.Second))
		wantRes := want.Flows[0].Result
		wantRes.Start += shift
		wantRes.End += shift
		if gotRes := got.Flows[0].Result; gotRes != wantRes {
			t.Errorf("shift %v s: flow result\n got %#v\nwant %#v", shiftS, gotRes, wantRes)
		}
		if !reflect.DeepEqual(got.Counters, want.Counters) {
			t.Errorf("shift %v s: counters moved\n got %+v\nwant %+v", shiftS, got.Counters, want.Counters)
		}
	}
}
