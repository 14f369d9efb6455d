package main

import (
	"fmt"
	"math"
	"math/rand/v2"
	"slices"
	"sort"

	"pimgo"
)

// Key layout shared by every workload. The static region holds random
// distinct keys below staticLimit that no op ever writes, so it is its own
// read oracle: a key's value is staticValue(key), presence is a binary
// search, and the successor of any query at or below its largest key is a
// static key. Written keys live at and above dynBase, out of reach of
// every read.
const (
	staticLimit = 1 << 40
	dynBase     = 1 << 41
	valueSalt   = 0x5bd1e995_9e3779b9
)

// mix64 is the SplitMix64 finalizer.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	return x ^ x>>31
}

func staticValue(k uint64) int64 { return int64(mix64(k^valueSalt) >> 1) }

// newRand returns the generator of one input stream of a seed.
func newRand(seed, stream uint64) *rand.Rand {
	return rand.New(rand.NewPCG(seed, mix64(stream)))
}

// staticRegion is the sorted static key set.
type staticRegion []uint64

func newStaticRegion(r *rand.Rand, n int) staticRegion {
	seen := make(map[uint64]struct{}, n)
	keys := make([]uint64, 0, n)
	for len(keys) < n {
		k := 1 + r.Uint64N(staticLimit-1)
		if _, dup := seen[k]; !dup {
			seen[k] = struct{}{}
			keys = append(keys, k)
		}
	}
	slices.Sort(keys)
	return keys
}

// ceil returns the index of the first key ≥ q, len(s) if none.
func (s staticRegion) ceil(q uint64) int {
	return sort.Search(len(s), func(i int) bool { return s[i] >= q })
}

// query returns a Successor query whose answer is a static key.
func (s staticRegion) query(r *rand.Rand) uint64 { return 1 + r.Uint64N(s[len(s)-1]) }

// probe returns a Get key: a static hit (four in five) or a random key
// of the static range, which is almost always a miss.
func (s staticRegion) probe(r *rand.Rand) uint64 {
	if r.IntN(5) < 4 {
		return s[r.IntN(len(s))]
	}
	return 1 + r.Uint64N(staticLimit-1)
}

func (s staticRegion) checkGet(k uint64, res pimgo.GetResult[int64]) error {
	i := s.ceil(k)
	want := i < len(s) && s[i] == k
	if res.Found != want || (want && res.Value != staticValue(k)) {
		return fmt.Errorf("Get(%d) = %+v, oracle found=%v value=%d", k, res, want, staticValue(k))
	}
	return nil
}

func (s staticRegion) checkSucc(q uint64, res pimgo.SearchResult[uint64, int64]) error {
	i := s.ceil(q)
	if i == len(s) {
		return fmt.Errorf("Successor(%d) beyond the static region", q)
	}
	if k := s[i]; !res.Found || res.Key != k || res.Value != staticValue(k) {
		return fmt.Errorf("Successor(%d) = %+v, oracle key=%d", q, res, k)
	}
	return nil
}

// zipf draws indexes of n items with probability ∝ 1/(rank+1)^s, for any
// s > 0 (math/rand's Zipf needs s > 1). Ranks map to items through a
// seeded permutation, so the hot keys are spread over the key space.
type zipf struct {
	cdf  []float64
	perm []int
}

func newZipf(r *rand.Rand, n int, s float64) *zipf {
	z := &zipf{cdf: make([]float64, n), perm: r.Perm(n)}
	var sum float64
	for i := range z.cdf {
		sum += math.Pow(float64(i+1), -s)
		z.cdf[i] = sum
	}
	for i := range z.cdf {
		z.cdf[i] /= sum
	}
	return z
}

func (z *zipf) next(r *rand.Rand) int {
	i := sort.SearchFloat64s(z.cdf, r.Float64())
	return z.perm[min(i, len(z.perm)-1)]
}

// shuffled returns a seeded random permutation of keys, the order the
// table is loaded in.
func shuffled(r *rand.Rand, keys []uint64) []uint64 {
	out := slices.Clone(keys)
	r.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}
