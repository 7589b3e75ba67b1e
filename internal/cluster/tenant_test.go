package cluster

import (
	"errors"
	"math"
	"math/rand"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"mclg/internal/mclgerr"
)

func TestParseTenantLimits(t *testing.T) {
	limits, err := ParseTenantLimits("acme=5/10, *=1/2 ,big=0.5/4")
	if err != nil {
		t.Fatal(err)
	}
	if limits["acme"] != (TenantLimit{Rate: 5, Burst: 10}) ||
		limits["*"] != (TenantLimit{Rate: 1, Burst: 2}) ||
		limits["big"] != (TenantLimit{Rate: 0.5, Burst: 4}) {
		t.Fatalf("parsed %v", limits)
	}
	if got := FormatTenantLimits(limits); got != "*=1/2,acme=5/10,big=0.5/4" {
		t.Fatalf("FormatTenantLimits = %q", got)
	}
	if _, err := ParseTenantLimits("acme=1e-4/100"); err != nil {
		t.Errorf("a burst that refills in 12 days refused: %v", err)
	}
	if empty, err := ParseTenantLimits("  "); err != nil || len(empty) != 0 {
		t.Fatalf("empty spec: %v %v", empty, err)
	}
	for _, bad := range []string{
		"acme", "acme=5", "acme=x/2", "acme=5/x", "acme=-1/2",
		"acme=5/0.5", "=5/2", "acme=5/2,acme=1/1",
		"acme=NaN/2", "acme=5/NaN", "acme=1e-7/1", // the last refills in 116 days
	} {
		if _, err := ParseTenantLimits(bad); !errors.Is(err, mclgerr.ErrInvalidInput) {
			t.Errorf("ParseTenantLimits(%q) = %v, want invalid-input", bad, err)
		}
	}
}

// gateAt builds a gate with a controllable clock.
func gateAt(limits map[string]TenantLimit) (*TenantGate, *time.Time) {
	g := NewTenantGate(limits)
	now := time.Unix(1000, 0)
	g.now = func() time.Time { return now }
	return g, &now
}

func TestTenantGateInteractiveDrainsBucket(t *testing.T) {
	g, now := gateAt(map[string]TenantLimit{"acme": {Rate: 1, Burst: 4}})
	for i := 0; i < 4; i++ {
		if ok, _ := g.Admit("acme", PriorityInteractive); !ok {
			t.Fatalf("admission %d refused with tokens left", i)
		}
	}
	ok, wait := g.Admit("acme", PriorityInteractive)
	if ok || wait <= 0 {
		t.Fatalf("over-burst admission: ok=%v wait=%v", ok, wait)
	}
	// Refill at 1 token/s: after the advertised wait the same admission
	// must succeed.
	*now = now.Add(wait)
	if ok, _ := g.Admit("acme", PriorityInteractive); !ok {
		t.Fatal("admission refused after waiting the advertised Retry-After")
	}
	admitted, throttled := g.Counts()
	if admitted != 5 || throttled != 1 {
		t.Fatalf("counts = %d admitted %d throttled", admitted, throttled)
	}
}

// TestTenantGateBatchLeavesInteractiveReserve pins the priority contract:
// batch work cannot take the bucket below the interactive reserve, so a batch
// flood never locks out the tenant's own interactive traffic.
func TestTenantGateBatchLeavesInteractiveReserve(t *testing.T) {
	g, _ := gateAt(map[string]TenantLimit{"acme": {Rate: 1, Burst: 8}})
	batch := 0
	for {
		ok, _ := g.Admit("acme", PriorityBatch)
		if !ok {
			break
		}
		batch++
		if batch > 8 {
			t.Fatal("batch admissions exceeded burst")
		}
	}
	if batch == 0 {
		t.Fatal("no batch admission at full bucket")
	}
	// The reserve (25% of burst = 2 tokens) must still admit interactive.
	inter := 0
	for {
		ok, _ := g.Admit("acme", PriorityInteractive)
		if !ok {
			break
		}
		inter++
		if inter > 8 {
			t.Fatal("interactive admissions exceeded burst")
		}
	}
	if inter == 0 {
		t.Fatal("batch flood starved interactive traffic out of its reserve")
	}
}

func TestTenantGateDefaultAndUnlimited(t *testing.T) {
	g, _ := gateAt(map[string]TenantLimit{"*": {Rate: 1, Burst: 1}})
	if ok, _ := g.Admit("anyone", PriorityInteractive); !ok {
		t.Fatal("first admission under the default limit refused")
	}
	if ok, _ := g.Admit("anyone", PriorityInteractive); ok {
		t.Fatal("default limit not applied to unlisted tenant")
	}
	// Separate tenants get separate buckets under the default.
	if ok, _ := g.Admit("other", PriorityInteractive); !ok {
		t.Fatal("default-limit buckets must be per-tenant")
	}

	open := NewTenantGate(nil)
	for i := 0; i < 100; i++ {
		if ok, _ := open.Admit("anyone", PriorityBatch); !ok {
			t.Fatal("gate without limits must admit everything")
		}
	}
}

func TestTenantGateWritePrometheus(t *testing.T) {
	g, _ := gateAt(map[string]TenantLimit{"acme": {Rate: 1, Burst: 1}})
	g.Admit("acme", PriorityInteractive)
	g.Admit("acme", PriorityInteractive)
	var sb strings.Builder
	g.WritePrometheus(&sb)
	out := sb.String()
	for _, want := range []string{
		`mclgd_cluster_admissions_total{decision="admitted"} 1`,
		`mclgd_cluster_admissions_total{decision="throttled"} 1`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
}

// retryAdmits reports whether tenant, refused by g at the given tier with the
// given Retry-After hint, is admitted when it retries after exactly that
// wait with no other traffic. It probes a copy of the tenant's bucket, so g
// is left as it was.
func retryAdmits(g *TenantGate, tenant, tier string, hint time.Duration) bool {
	probe, now := gateAt(g.limits)
	b := *g.buckets[tenant]
	probe.buckets[tenant] = &b
	*now = b.last.Add(hint)
	ok, _ := probe.Admit(tenant, tier)
	return ok
}

// TestTenantGateRetryAfterAdmits pins the Retry-After contract for limits
// the parser accepts, bursts below 4/3 included, in both tiers: a refused
// job that retries after its hint, with no other traffic, is admitted.
// Without the batch need's cap at the burst, a burst below 4/3 refused
// every batch job forever while its hint promised admission.
func TestTenantGateRetryAfterAdmits(t *testing.T) {
	g, now := gateAt(map[string]TenantLimit{"acme": {Rate: 5, Burst: 1}})
	for i := 0; i < 1000; i++ {
		if ok, hint := g.Admit("acme", PriorityBatch); !ok {
			t.Fatalf("acme=5/1: batch job %d, 1 s after the last, refused with Retry-After %v", i, hint)
		}
		*now = now.Add(time.Second)
	}

	rng := rand.New(rand.NewSource(41))
	specs := []string{"acme=5/1", "acme=1/1.3", "acme=0.5/2.5", "acme=1/4"}
	for len(specs) < 300 {
		rate := math.Pow(10, -2+4*rng.Float64())
		burst := 1 + rng.Float64()/3 // a third of the draws sit below 4/3
		if rng.Intn(3) > 0 {
			burst = 1 + math.Pow(10, -2+4*rng.Float64())
		}
		specs = append(specs, "acme="+strconv.FormatFloat(rate, 'g', -1, 64)+"/"+strconv.FormatFloat(burst, 'g', -1, 64))
	}
	for _, spec := range specs {
		limits, err := ParseTenantLimits(spec)
		if err != nil {
			t.Fatal(err)
		}
		refill := limits["acme"].Burst / limits["acme"].Rate
		for _, tier := range []string{PriorityBatch, PriorityInteractive} {
			g, now := gateAt(limits)
			for i := 0; i < 200; i++ {
				*now = now.Add(time.Duration(rng.ExpFloat64() * refill / 4 * float64(time.Second)))
				if ok, hint := g.Admit("acme", tier); !ok && (hint <= 0 || !retryAdmits(g, "acme", tier, hint)) {
					t.Fatalf("%s, %s job %d: refused with Retry-After %v, and refused again after waiting it",
						spec, tier, i, hint)
				}
			}
		}
	}
}

// TestTenantGateDropsRefilledBuckets sends 100,000 tenants, one job each,
// at 10 jobs/s under a "*=1/2" default. Each bucket is full again 1 s after
// its job, so the gate keeps only the few charged in the last second, not
// one bucket per name it ever saw.
func TestTenantGateDropsRefilledBuckets(t *testing.T) {
	g, now := gateAt(map[string]TenantLimit{"*": {Rate: 1, Burst: 2}})
	for i := 0; i < 100_000; i++ {
		if ok, _ := g.Admit("tenant-"+strconv.Itoa(i), PriorityBatch); !ok {
			t.Fatalf("tenant %d refused its only job", i)
		}
		if n := len(g.buckets); n > 128 {
			t.Fatalf("after %d tenants the gate holds %d buckets, want at most 128", i+1, n)
		}
		*now = now.Add(100 * time.Millisecond)
	}
}

// TestTenantGateSweepKeepsDecisions replays a mixed trace, repeat and
// one-off tenants at both tiers under listed and default limits, through a
// gate and an unpruned reference, and requires every decision and every
// Retry-After to match.
func TestTenantGateSweepKeepsDecisions(t *testing.T) {
	limits, err := ParseTenantLimits("acme=5/10,big=0.5/4,tiny=2/1.1,*=1/2")
	if err != nil {
		t.Fatal(err)
	}
	g, now := gateAt(limits)
	ref, refNow := gateAt(limits)
	ref.sweepAt = math.MaxInt
	rng := rand.New(rand.NewSource(7))
	named := []string{"acme", "big", "tiny", "", "r0", "r1", "r2"}
	for i := 0; i < 50_000; i++ {
		tenant := named[rng.Intn(len(named))]
		if rng.Intn(2) == 0 {
			tenant = "once-" + strconv.Itoa(i)
		}
		tier := PriorityBatch
		if rng.Intn(3) == 0 {
			tier = PriorityInteractive
		}
		ok, hint := g.Admit(tenant, tier)
		refOK, refHint := ref.Admit(tenant, tier)
		if ok != refOK || hint != refHint {
			t.Fatalf("job %d (%q, %s): admitted %v, Retry-After %v; unpruned reference %v, %v",
				i, tenant, tier, ok, hint, refOK, refHint)
		}
		step := time.Duration(rng.ExpFloat64() * float64(50*time.Millisecond))
		*now, *refNow = now.Add(step), refNow.Add(step)
	}
	if len(g.buckets) >= len(ref.buckets)/10 {
		t.Fatalf("gate holds %d buckets against the reference's %d: the sweep did not run", len(g.buckets), len(ref.buckets))
	}
}

// TestTenantGateConcurrentAdmit runs one-off tenants through one gate from
// eight goroutines, so that the race detector sees sweeps interleave with
// admissions. Each tenant's only job meets a full bucket and is admitted.
func TestTenantGateConcurrentAdmit(t *testing.T) {
	g := NewTenantGate(map[string]TenantLimit{"*": {Rate: 1000, Burst: 2}})
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				if ok, _ := g.Admit("w"+strconv.Itoa(w)+"-"+strconv.Itoa(i), PriorityBatch); !ok {
					t.Errorf("goroutine %d, tenant %d: its only job was refused", w, i)
					return
				}
			}
		}()
	}
	wg.Wait()
	if n := len(g.buckets); n > g.sweepAt {
		t.Errorf("%d buckets, over the %d at which the next sweep runs", n, g.sweepAt)
	}
}
