package srcr

import (
	"testing"

	"repro/internal/graph"
	"repro/internal/sim"
)

// onoeHarness builds an Onoe instance on a throwaway simulator so its
// periodic evaluation timer has somewhere to live, and returns a manual
// clock-advance function.
func onoeHarness(t *testing.T) (*Onoe, func(sim.Time)) {
	t.Helper()
	s := sim.New(graph.New(1), sim.DefaultConfig())
	p := &probeLike{}
	s.Attach(0, p)
	o := NewOnoe(s.Node(0))
	advance := func(d sim.Time) { s.Run(s.Now() + d) }
	return o, advance
}

// probeLike is a no-op protocol to host timers.
type probeLike struct{}

func (p *probeLike) Init(*sim.Node)        {}
func (p *probeLike) Receive(*sim.Frame)    {}
func (p *probeLike) Pull() *sim.Frame      { return nil }
func (p *probeLike) Sent(*sim.Frame, bool) {}

func TestOnoeStartsAtTopRate(t *testing.T) {
	o, _ := onoeHarness(t)
	if o.Rate() != sim.Rate11 {
		t.Fatalf("initial rate %v", o.Rate())
	}
}

func TestOnoeDropsOnHeavyRetries(t *testing.T) {
	o, advance := onoeHarness(t)
	for i := 0; i < 20; i++ {
		o.Report(5, false) // constant failures
	}
	advance(sim.Second + sim.Millisecond)
	if o.Rate() != sim.Rate5_5 {
		t.Fatalf("rate after one bad window: %v, want one step down", o.Rate())
	}
	for w := 0; w < 5; w++ {
		for i := 0; i < 20; i++ {
			o.Report(5, false)
		}
		advance(sim.Second)
	}
	if o.Rate() != sim.Rate1 {
		t.Fatalf("rate should bottom out at 1 Mb/s, got %v", o.Rate())
	}
	// It never goes below the lowest rate.
	for i := 0; i < 20; i++ {
		o.Report(5, false)
	}
	advance(sim.Second)
	if o.Rate() != sim.Rate1 {
		t.Fatal("rate fell below 1 Mb/s")
	}
}

func TestOnoeClimbsBackWithCredit(t *testing.T) {
	o, advance := onoeHarness(t)
	// Crash to the bottom.
	for w := 0; w < 6; w++ {
		for i := 0; i < 10; i++ {
			o.Report(7, false)
		}
		advance(sim.Second)
	}
	if o.Rate() != sim.Rate1 {
		t.Fatalf("setup failed: rate %v", o.Rate())
	}
	// Clean windows accumulate credit; after onoeRaiseCredit windows the rate
	// steps up.
	for w := 0; w < onoeRaiseCredit; w++ {
		for i := 0; i < 50; i++ {
			o.Report(0, true)
		}
		advance(sim.Second)
	}
	if o.Rate() != sim.Rate2 {
		t.Fatalf("rate after %d clean windows: %v, want 2 Mb/s", onoeRaiseCredit, o.Rate())
	}
}

func TestOnoeMiddlingWindowErodesCredit(t *testing.T) {
	o, advance := onoeHarness(t)
	// Drop one step so raises are possible.
	for i := 0; i < 10; i++ {
		o.Report(7, false)
	}
	advance(sim.Second + sim.Millisecond)
	if o.Rate() != sim.Rate5_5 {
		t.Fatalf("setup: %v", o.Rate())
	}
	// Almost enough clean windows to raise...
	for w := 0; w < onoeRaiseCredit-1; w++ {
		for i := 0; i < 50; i++ {
			o.Report(0, true)
		}
		advance(sim.Second)
	}
	// ...then a middling window (retries between the thresholds) must
	// erode credit rather than raise: 3 of 10 frames needed one retry,
	// retryFrac = 0.3, between 0.1 and 0.5.
	for i := 0; i < 7; i++ {
		o.Report(0, true)
	}
	for i := 0; i < 3; i++ {
		o.Report(1, true)
	}
	advance(sim.Second)
	if o.Rate() != sim.Rate5_5 {
		t.Fatalf("middling window changed the rate to %v", o.Rate())
	}
}

func TestOnoeIdleWindowsAreNeutral(t *testing.T) {
	o, advance := onoeHarness(t)
	advance(10 * sim.Second) // no traffic at all
	if o.Rate() != sim.Rate11 {
		t.Fatalf("idle windows moved the rate to %v", o.Rate())
	}
}

// TestOnoeFixedParameters pins the classic MadWifi numbers behind the §4.4
// autorate comparison: 1 s period, 10 credits to raise, lower above 50%
// retries, earn credit under 10%.
func TestOnoeFixedParameters(t *testing.T) {
	if onoePeriod != sim.Second || onoeRaiseCredit != 10 ||
		onoeDownRetryFrac != 0.5 || onoeCreditRetryFrac != 0.1 {
		t.Fatalf("Onoe constants = %v / %d / %v / %v, want 1s / 10 / 0.5 / 0.1",
			onoePeriod, onoeRaiseCredit, onoeDownRetryFrac, onoeCreditRetryFrac)
	}
}

// TestOnoeClockRearmsOneTimer: an Onoe rate window closes on one event
// re-armed as it fires, so an idle neighbour's evaluation allocates nothing.
func TestOnoeClockRearmsOneTimer(t *testing.T) {
	s := sim.New(graph.New(1), sim.DefaultConfig())
	s.Attach(0, &probeLike{})
	NewOnoe(s.Node(0))
	if allocs := testing.AllocsPerRun(100, func() { s.Run(s.Now() + onoePeriod) }); allocs != 0 {
		t.Errorf("an Onoe evaluation allocates %v objects, want 0", allocs)
	}
	if s.Pending() != 1 {
		t.Fatalf("%d events pending, want the one Onoe clock", s.Pending())
	}
}
