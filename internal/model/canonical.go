package model

import (
	"encoding/json"
	"fmt"
)

// CanonicalSignature returns a stable identity string for a problem
// instance: its kind plus its canonical JSON encoding. It plays the same
// role for single instances that engine.SweepSignature plays for sweep
// grids — a full-fidelity identity the caller can hash for indexing and
// compare verbatim to rule out hash collisions. Two instances share a
// signature exactly when their kinds and every encoded field are equal.
//
// Determinism rests on the instance's JSON encoding being canonical:
// struct fields marshal in declaration order and neither problem family
// encodes through maps, so equal instances always produce equal bytes.
func CanonicalSignature(inst Instance) (string, error) {
	b, err := json.Marshal(inst)
	if err != nil {
		return "", fmt.Errorf("model: canonical signature of %s instance: %w", inst.Kind(), err)
	}
	return inst.Kind() + ":" + string(b), nil
}

// CanonicalKey condenses a canonical signature into a 64-bit cache key
// with the splitmix64 finaliser: every signature byte is folded through
// the mixer, so nearby
// signatures (one count or coordinate apart) land in unrelated slots.
// Collisions are possible — pair the key with the full signature, as
// the wrsnd plan cache does, when a false hit would be incorrect rather
// than merely wasteful.
func CanonicalKey(sig string) uint64 {
	x := uint64(len(sig)) ^ 0x9E3779B97F4A7C15
	for i := 0; i < len(sig); i++ {
		x = mix64(x ^ uint64(sig[i]))
	}
	return mix64(x)
}

// mix64 is the splitmix64 finaliser, kept platform-stable and
// dependency-free.
func mix64(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	return x ^ (x >> 31)
}
