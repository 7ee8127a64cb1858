package chunker

import (
	"math/rand"
	"testing"
)

func benchData(n int) []byte {
	r := rand.New(rand.NewSource(42))
	b := make([]byte, n)
	r.Read(b)
	return b
}

// BenchmarkFixedSplit measures the paper's default chunking throughput —
// the cheapness argument for keeping static chunking (§4.1).
func BenchmarkFixedSplit(b *testing.B) {
	data := benchData(8 << 20)
	c := NewFixed()
	b.SetBytes(int64(len(data)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := SplitBytes(c, data); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCDCSplit measures content-defined chunking throughput — the
// CPU-cost side of the fixed-vs-CDC ablation.
func BenchmarkCDCSplit(b *testing.B) {
	data := benchData(8 << 20)
	c := NewCDC()
	b.SetBytes(int64(len(data)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := SplitBytes(c, data); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkGzipChunk measures per-chunk compression cost: an
// incompressible chunk (stored after the probe) and a mixed one, a tenth
// run-length text and the rest random, as the trace Materializer writes
// (deflated at the default level after the probe).
func BenchmarkGzipChunk(b *testing.B) {
	for _, tc := range []struct {
		name string
		data []byte
	}{
		{"random", benchData(DefaultChunkSize)},
		{"mixed", mixedData(DefaultChunkSize, 0.10)},
	} {
		b.Run(tc.name, func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(int64(len(tc.data)))
			for i := 0; i < b.N; i++ {
				if _, err := Compress(tc.data, Gzip); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// mixedData is n bytes whose first textShare is run-length text and the
// rest random.
func mixedData(n int, textShare float64) []byte {
	r := rand.New(rand.NewSource(7))
	b := make([]byte, n)
	textEnd := int(float64(n) * textShare)
	const alphabet = "abcdefghijklmnopqrstuvwxyz .,\n"
	for i := 0; i < textEnd; {
		ch := alphabet[r.Intn(len(alphabet))]
		for run := 1 + r.Intn(12); run > 0 && i < textEnd; run-- {
			b[i] = ch
			i++
		}
	}
	r.Read(b[textEnd:])
	return b
}

// BenchmarkFingerprint measures SHA-1 fingerprinting of a default chunk.
func BenchmarkFingerprint(b *testing.B) {
	data := benchData(DefaultChunkSize)
	b.SetBytes(int64(len(data)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = Fingerprint(data)
	}
}
