package cluster

import (
	"math"
	"strconv"
	"testing"
	"time"
)

// FuzzTenantGate drives one gate under a "*" limit the parser accepts with a
// trace of jobs, each byte one job: bit 0 picks the tier, bit 1 a one-off
// tenant or, by bits 2–3, one of four repeat tenants, and bits 4–7 the clock
// step before it, in sixteenths of the time the burst takes to refill. Only
// the first 1,024 jobs run, enough to cross several sweeps. It checks that
// every refused job, retried after its Retry-After hint with no other
// traffic, is admitted, and that the gate never holds more than minSweep
// buckets or twice the most tenants admitted within two refill times, the
// only buckets a sweep may keep.
func FuzzTenantGate(f *testing.F) {
	f.Add(1.0, 2.0, []byte{0, 2, 1, 0x13, 0, 0, 0x21, 3, 0xff, 2, 2, 2})
	f.Add(5.0, 1.0, []byte{0x10, 0x10, 0x10, 0, 0, 0x11, 1})
	f.Add(0.5, 2.5, []byte{0, 0, 0, 1, 1, 1, 0x40, 0, 0})
	f.Add(1e-3, 1.2, []byte{2, 6, 10, 14, 0xf0, 0, 1, 0})
	f.Fuzz(func(t *testing.T, rate, burst float64, trace []byte) {
		spec := "*=" + strconv.FormatFloat(rate, 'g', -1, 64) + "/" + strconv.FormatFloat(burst, 'g', -1, 64)
		limits, err := ParseTenantLimits(spec)
		if err != nil {
			t.Skip()
		}
		trace = trace[:min(len(trace), 1024)]
		limit := limits["*"]
		refill := time.Duration(math.Ceil(limit.Burst / limit.Rate * float64(time.Second)))
		g, now := gateAt(limits)

		// Tenants admitted within the last two refills, which a sweep may
		// keep; every other bucket is full and must go at the next sweep.
		type charge struct {
			at     time.Time
			tenant string
		}
		var recent []charge
		inWindow := map[string]int{}
		maxLive := 0
		for i, op := range trace {
			*now = now.Add(time.Duration(op>>4) * (refill / 16))
			for len(recent) > 0 && now.Sub(recent[0].at) >= 2*refill {
				if inWindow[recent[0].tenant]--; inWindow[recent[0].tenant] == 0 {
					delete(inWindow, recent[0].tenant)
				}
				recent = recent[1:]
			}
			maxLive = max(maxLive, len(inWindow))

			tier := PriorityBatch
			if op&1 == 1 {
				tier = PriorityInteractive
			}
			tenant := "repeat-" + strconv.Itoa(int(op>>2&3))
			if op&2 == 2 {
				tenant = "once-" + strconv.Itoa(i)
			}
			if ok, hint := g.Admit(tenant, tier); ok {
				recent = append(recent, charge{*now, tenant})
				inWindow[tenant]++
			} else if hint <= 0 || !retryAdmits(g, tenant, tier, hint) {
				t.Fatalf("%s, job %d (%s, %s): refused with Retry-After %v, and refused again after waiting it",
					spec, i, tenant, tier, hint)
			}
			if n := len(g.buckets); n > max(minSweep, 2*maxLive) {
				t.Fatalf("%s, job %d: %d buckets, over twice the %d tenants that may be refilling", spec, i, n, maxLive)
			}
		}
	})
}
