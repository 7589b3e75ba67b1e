package serve

import (
	"fmt"
	"testing"
)

// BenchmarkRequestKey measures content-address derivation — the per-request
// overhead every submission pays before the cache lookup.
func BenchmarkRequestKey(b *testing.B) {
	req := &Request{Bench: "fft_2", Scale: 0.004,
		Options: &OptionsJSON{Lambda: 1000, Eps: 1e-4}}
	if err := req.validate(); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = req.key()
	}
}

// BenchmarkCacheLookupHit measures the hot serving path: a resident key
// looked up under the cache mutex.
func BenchmarkCacheLookupHit(b *testing.B) {
	c := newResultCache(128)
	for i := 0; i < 128; i++ {
		k := fmt.Sprintf("k%d", i)
		f, _, _ := c.join(k)
		c.complete(k, f, rep(k))
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, ok := c.Get("k64"); !ok {
			b.Fatal("lookup missed")
		}
	}
}
