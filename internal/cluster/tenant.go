package cluster

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"mclg/internal/mclgerr"
	"mclg/internal/prom"
)

// Priority tiers at the coordinator admission queue. Interactive work (ECO
// sessions, explicitly tagged requests) may drain a tenant's bucket to
// empty; batch work must leave headroom so a burst of batch jobs can never
// starve the tenant's own interactive traffic.
const (
	PriorityBatch       = "batch"
	PriorityInteractive = "interactive"
)

// batchReserve is the fraction of a tenant's burst capacity reserved for
// interactive work: a batch admission must leave at least this share of the
// bucket behind.
const batchReserve = 0.25

// TenantLimit is one tenant's token-bucket parameters: Rate tokens/second
// refill up to Burst capacity; every admitted job costs one token.
type TenantLimit struct {
	Rate  float64
	Burst float64
}

// ParseTenantLimits parses the -tenant-limits flag syntax:
//
//	tenant=rate/burst[,tenant=rate/burst...]
//
// e.g. "acme=5/10,*=1/2". The "*" tenant is the default applied to tenants
// not listed; with no "*" entry, unlisted tenants are unlimited.
func ParseTenantLimits(s string) (map[string]TenantLimit, error) {
	out := make(map[string]TenantLimit)
	if strings.TrimSpace(s) == "" {
		return out, nil
	}
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		name, spec, ok := strings.Cut(part, "=")
		if !ok || name == "" {
			return nil, mclgerr.Invalidf("cluster: tenant limit %q is not tenant=rate/burst", part)
		}
		rateS, burstS, ok := strings.Cut(spec, "/")
		if !ok {
			return nil, mclgerr.Invalidf("cluster: tenant limit %q is not tenant=rate/burst", part)
		}
		rate, err := strconv.ParseFloat(rateS, 64)
		if err != nil || rate <= 0 || math.IsInf(rate, 0) {
			return nil, mclgerr.Invalidf("cluster: tenant %q rate %q must be a positive number", name, rateS)
		}
		burst, err := strconv.ParseFloat(burstS, 64)
		if err != nil || burst < 1 || math.IsInf(burst, 0) {
			return nil, mclgerr.Invalidf("cluster: tenant %q burst %q must be a number >= 1", name, burstS)
		}
		if _, dup := out[name]; dup {
			return nil, mclgerr.Invalidf("cluster: tenant %q listed twice", name)
		}
		out[name] = TenantLimit{Rate: rate, Burst: burst}
	}
	return out, nil
}

// FormatTenantLimits renders limits back into the flag syntax, sorted, for
// logs and tests.
func FormatTenantLimits(limits map[string]TenantLimit) string {
	names := make([]string, 0, len(limits))
	for n := range limits {
		names = append(names, n)
	}
	sort.Strings(names)
	parts := make([]string, 0, len(names))
	for _, n := range names {
		l := limits[n]
		parts = append(parts, fmt.Sprintf("%s=%g/%g", n, l.Rate, l.Burst))
	}
	return strings.Join(parts, ",")
}

// TenantGate enforces per-tenant token-bucket rate limits with priority
// tiers at the admission queue. Buckets refill continuously; a refused
// admission returns the wait until the refusing tier could next admit, which
// the daemon surfaces as Retry-After.
type TenantGate struct {
	mu      sync.Mutex
	limits  map[string]TenantLimit
	buckets map[string]*bucket
	now     func() time.Time // injectable for deterministic tests

	reg                 prom.Registry
	admitted, throttled *prom.Counter
}

type bucket struct {
	tokens float64
	last   time.Time
	limit  TenantLimit
}

// NewTenantGate builds a gate from parsed limits. A nil or empty map admits
// everything (the gate still counts admissions).
func NewTenantGate(limits map[string]TenantLimit) *TenantGate {
	g := &TenantGate{limits: limits, buckets: make(map[string]*bucket), now: time.Now}
	d := g.reg.CounterVec("mclgd_cluster_admissions_total", "Tenant-gate decisions at the admission queue.", "decision",
		"admitted", "throttled")
	g.admitted, g.throttled = d.With("admitted"), d.With("throttled")
	return g
}

// limitFor resolves a tenant's limit: exact entry, then the "*" default,
// then unlimited.
func (g *TenantGate) limitFor(tenant string) (TenantLimit, bool) {
	if l, ok := g.limits[tenant]; ok {
		return l, true
	}
	if l, ok := g.limits["*"]; ok {
		return l, true
	}
	return TenantLimit{}, false
}

// Admit charges one token to the tenant's bucket at the given priority. It
// returns ok=true when admitted; otherwise retryAfter is how long until the
// same admission could succeed. The empty tenant shares one "" bucket, so an
// anonymous flood is throttled collectively under a "*" default.
func (g *TenantGate) Admit(tenant, priority string) (ok bool, retryAfter time.Duration) {
	g.mu.Lock()
	defer g.mu.Unlock()

	limit, limited := g.limitFor(tenant)
	if !limited {
		g.admitted.Inc()
		return true, 0
	}
	now := g.now()
	b := g.buckets[tenant]
	if b == nil || b.limit != limit {
		b = &bucket{tokens: limit.Burst, last: now, limit: limit}
		g.buckets[tenant] = b
	}
	// Continuous refill since the last charge, capped at burst.
	if dt := now.Sub(b.last).Seconds(); dt > 0 {
		b.tokens = math.Min(limit.Burst, b.tokens+dt*limit.Rate)
	}
	b.last = now

	// Interactive may take the bucket to zero; batch must leave the
	// reserved headroom so interactive traffic always has tokens standing.
	need := 1.0
	if priority != PriorityInteractive {
		need = 1.0 + batchReserve*limit.Burst
	}
	if b.tokens >= need {
		b.tokens--
		g.admitted.Inc()
		return true, 0
	}
	g.throttled.Inc()
	wait := (need - b.tokens) / limit.Rate
	return false, time.Duration(math.Ceil(wait * float64(time.Second)))
}

// Counts reports lifetime admissions and throttles (metrics/test helper).
func (g *TenantGate) Counts() (admitted, throttled uint64) {
	return g.admitted.Get(), g.throttled.Get()
}

// WritePrometheus appends the gate's series to a /metrics exposition.
func (g *TenantGate) WritePrometheus(w io.Writer) { g.reg.Write(w) }
