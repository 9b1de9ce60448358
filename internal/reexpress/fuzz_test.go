package reexpress

import (
	"math/rand"
	"testing"

	"nvariant/internal/word"
)

// FuzzGenerate checks the Generate contract for arbitrary seeds: the
// drawn UID functions are identity plus XOR masks that are pairwise
// byte-distinct in every position (so any single-byte overwrite
// diverges between every pair of variants), and the generated spec
// holds the §2.2 inverse and §2.3 N-wide disjointness properties over
// boundary values plus a seed-derived random sample. Seed corpus under
// testdata/fuzz; CI runs this briefly in the campaign-smoke job.
func FuzzGenerate(f *testing.F) {
	f.Add(int64(1), byte(0))
	f.Add(int64(42), byte(3))
	f.Add(int64(-7), byte(1))
	f.Add(int64(1<<62), byte(2))
	f.Fuzz(func(t *testing.T, seed int64, nRaw byte) {
		n := 2 + int(nRaw%4) // group sizes 2..5
		spec := Generate(seed, n, LayerUID, LayerAddressPartition)
		funcs := spec.UIDFuncs()
		if len(funcs) != n {
			t.Fatalf("got %d UID funcs for n=%d", len(funcs), n)
		}

		masks := make([]word.Word, n)
		for i, fn := range funcs {
			switch m := fn.(type) {
			case Identity:
				if i != 0 {
					t.Fatalf("variant %d drew identity", i)
				}
			case XORMask:
				if i == 0 {
					t.Fatal("variant 0 is not identity")
				}
				masks[i] = m.Mask
				if m.Mask&word.HighBit != 0 {
					t.Fatalf("mask %s has the sign bit set", m.Mask)
				}
			default:
				t.Fatalf("unexpected func type %T", fn)
			}
		}
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				if !byteDistinct(masks[i], []word.Word{masks[j]}) {
					t.Fatalf("masks %s and %s share a byte position", masks[i], masks[j])
				}
			}
		}

		samples := []word.Word{0, 1, 0x7FFFFFFF, 0x80000000, 0x80000001, 0xFFFFFFFF}
		rng := rand.New(rand.NewSource(seed))
		for k := 0; k < 64; k++ {
			samples = append(samples, word.Word(rng.Uint32()))
		}
		if err := CheckSpec(spec, samples); err != nil {
			t.Fatalf("generated spec violates properties: %v", err)
		}
	})
}
