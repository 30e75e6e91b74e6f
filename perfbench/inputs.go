package main

import (
	"mobicache/internal/catalog"
	"mobicache/internal/client"
	"mobicache/internal/loadgen"
	"mobicache/internal/rng"
	"mobicache/internal/serve/ring"
)

// clients is the number of client ids the request streams round-robin.
const clients = 32

// members names serve-window's two engines on the ring.
var members = []string{"a", "b"}

// catalogSizes returns n object sizes cycling 1..4 data units.
func catalogSizes(n int) []int64 {
	sizes := make([]int64, n)
	for i := range sizes {
		sizes[i] = int64(i%4 + 1)
	}
	return sizes
}

// deriveSeed gives each input stream of a run its own seed (splitmix64).
func deriveSeed(seed, tag uint64) uint64 {
	z := seed + tag*0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// drawRequests draws n read requests: zipf popularity, targets U[lo, hi].
func drawRequests(seed uint64, objects, n int, zipf, lo, hi float64) ([]client.Request, error) {
	st, err := loadgen.NewStream(loadgen.StreamConfig{
		Objects: objects, ZipfS: zipf, Clients: clients, TargetLo: lo, TargetHi: hi, Seed: seed,
	})
	if err != nil {
		return nil, err
	}
	reqs := make([]client.Request, n)
	for i := range reqs {
		reqs[i] = st.Next()
	}
	return reqs, nil
}

// drawUpdates draws batches of zipf-popular object ids.
func drawUpdates(seed uint64, objects, batches, per int, zipf float64) ([][]catalog.ID, error) {
	st, err := loadgen.NewStream(loadgen.StreamConfig{Objects: objects, ZipfS: zipf, Seed: seed})
	if err != nil {
		return nil, err
	}
	out := make([][]catalog.ID, batches)
	for i := range out {
		out[i] = make([]catalog.ID, per)
		for j := range out[i] {
			out[i][j] = st.Next().Object
		}
	}
	return out, nil
}

// warmRequests asks each station once for every object it owns (owner
// maps an object to its station index), in a seeded order. Filling each
// owner's cache in set-up keeps compulsory misses, a one-off cost, out of
// the measured phase, while a station's first request for an object the
// other station owns still takes the cooperative peer-fetch path.
func warmRequests(seed uint64, objects int, owner func(id int) int) []warmRequest {
	r := rng.New(seed)
	reqs := make([]warmRequest, 0, objects)
	for _, id := range r.Perm(objects) {
		reqs = append(reqs, warmRequest{owner(id), client.Request{Object: catalog.ID(id), Target: 1}})
	}
	return reqs
}

// warmRequest is one set-up request and the station it goes to.
type warmRequest struct {
	station int
	req     client.Request
}

// ringOwner returns owner-index lookup for a ring over members.
func ringOwner(members []string) (func(id int) int, error) {
	rg, err := ring.New(members, 0)
	if err != nil {
		return nil, err
	}
	return func(id int) int {
		if rg.OwnerObject(id) == members[0] {
			return 0
		}
		return 1
	}, nil
}
