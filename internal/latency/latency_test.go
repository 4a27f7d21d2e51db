package latency

import (
	"sync"
	"testing"
	"time"
)

func TestConfigNames(t *testing.T) {
	cases := []struct {
		cfg  Config
		want string
	}{
		{Config300x100(), "300/100"},
		{Config300x300(), "300/300"},
		{Config600x300(), "600/300"},
	}
	for _, c := range cases {
		if got := c.cfg.Name(); got != c.want {
			t.Errorf("Name() = %q, want %q", got, c.want)
		}
	}
}

func TestDeltas(t *testing.T) {
	c := Config300x100()
	if d := c.WriteDeltaNs(); d != 285 {
		t.Errorf("300/100 write delta = %d, want 285", d)
	}
	if d := c.ReadDeltaNs(); d != 0 {
		t.Errorf("300/100 read delta = %d, want 0 (PM read == DRAM read)", d)
	}
	c = Config600x300()
	if d := c.WriteDeltaNs(); d != 585 {
		t.Errorf("600/300 write delta = %d, want 585", d)
	}
	if d := c.ReadDeltaNs(); d != 200 {
		t.Errorf("600/300 read delta = %d, want 200", d)
	}
	// Negative deltas clamp to zero.
	neg := Config{PMWriteNs: 10, DRAMWriteNs: 15, PMReadNs: 50, DRAMReadNs: 100}
	if neg.WriteDeltaNs() != 0 || neg.ReadDeltaNs() != 0 {
		t.Error("negative deltas must clamp to 0")
	}
}

func TestClockAccounting(t *testing.T) {
	c := NewClock(Config300x300())
	for i := 0; i < 10; i++ {
		c.OnPersist(1)
	}
	c.OnReadMiss()
	c.OnReadMiss()
	s := c.Snapshot()
	if s.PMReadMisses != 2 {
		t.Errorf("PMReadMisses = %d, want 2", s.PMReadMisses)
	}
	if want := int64(10 * 285); s.WritePenaltyNs != want {
		t.Errorf("WritePenaltyNs = %d, want %d", s.WritePenaltyNs, want)
	}
	if want := int64(2 * 200); s.ReadPenaltyNs != want {
		t.Errorf("ReadPenaltyNs = %d, want %d", s.ReadPenaltyNs, want)
	}
	if c.PenaltyNs() != s.PenaltyNs() {
		t.Error("PenaltyNs mismatch between clock and snapshot")
	}
	c.Reset()
	if c.Snapshot() != (Stats{}) {
		t.Error("Reset did not zero counters")
	}
}

func TestModeOffChargesNothing(t *testing.T) {
	c := NewClock(Off())
	c.OnPersist(1)
	c.OnReadMiss()
	if c.PenaltyNs() != 0 {
		t.Errorf("ModeOff charged %d ns", c.PenaltyNs())
	}
	// Misses still tick: a cache model without a latency config reports
	// its miss count through the clock.
	if s := c.Snapshot(); s.PMReadMisses != 1 {
		t.Errorf("ModeOff lost counters: %+v", s)
	}
}

func TestModeSpinActuallyDelays(t *testing.T) {
	cfg := Config600x300()
	cfg.Mode = ModeSpin
	c := NewClock(cfg)
	const n = 2000
	start := time.Now()
	for i := 0; i < n; i++ {
		c.OnPersist(1)
	}
	elapsed := time.Since(start)
	// n * 585ns of injected delay; allow generous scheduling slack but
	// require at least 80% of the nominal delay.
	if minimum := time.Duration(n*585) * time.Nanosecond * 8 / 10; elapsed < minimum {
		t.Errorf("spin mode too fast: %v for %d persists, want >= %v", elapsed, n, minimum)
	}
}

func TestClockConcurrent(t *testing.T) {
	c := NewClock(Config300x300())
	var wg sync.WaitGroup
	const workers, per = 8, 1000
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				c.OnPersist(1)
				if i%2 == 0 {
					c.OnReadMiss()
				}
			}
		}()
	}
	wg.Wait()
	s := c.Snapshot()
	if want := int64(workers * per * 285); s.WritePenaltyNs != want {
		t.Errorf("WritePenaltyNs = %d, want %d", s.WritePenaltyNs, want)
	}
	if s.PMReadMisses != workers*per/2 {
		t.Errorf("PMReadMisses = %d, want %d", s.PMReadMisses, workers*per/2)
	}
}

func TestModeString(t *testing.T) {
	if ModeOff.String() != "off" || ModeAccount.String() != "account" || ModeSpin.String() != "spin" {
		t.Error("Mode.String mismatch")
	}
}

func TestOnPersistPerLineCharging(t *testing.T) {
	c := NewClock(Config300x300())
	c.OnPersist(32) // e.g. a 2 KB node build
	if got, want := c.Snapshot().WritePenaltyNs, int64(32*285); got != want {
		t.Errorf("32-line persist charged %d ns, want %d", got, want)
	}
	c.Reset()
	c.OnPersist(0) // defensive: clamps to one line
	if got := c.Snapshot().WritePenaltyNs; got != 285 {
		t.Errorf("zero-line persist charged %d ns, want 285", got)
	}
}

// BenchmarkSpin reports the wall time of one spun write penalty (one
// persisted line) and one spun read penalty at 300/300, whose charges are
// 285 and 200 ns: ns/op above those is what each spin overshoots on this
// host, the cost of reading the clock that ends it.
func BenchmarkSpin(b *testing.B) {
	cfg := Config300x300()
	cfg.Mode = ModeSpin
	for _, c := range []struct {
		name   string
		charge func(*Clock)
	}{
		{"write", func(c *Clock) { c.OnPersist(1) }},
		{"read", (*Clock).OnReadMiss},
	} {
		b.Run(c.name, func(b *testing.B) {
			clock := NewClock(cfg)
			for i := 0; i < b.N; i++ {
				c.charge(clock)
			}
			b.ReportMetric(float64(clock.PenaltyNs())/float64(b.N), "charged-ns/op")
		})
	}
}
