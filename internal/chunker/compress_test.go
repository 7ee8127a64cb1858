package chunker

import (
	"bytes"
	"compress/gzip"
	"fmt"
	"io"
	"math/rand"
	"sync"
	"testing"

	"stacksync/internal/trace"
)

// gzipDefault is the reference encoding: stock gzip at the default level.
func gzipDefault(t testing.TB, data []byte) []byte {
	t.Helper()
	var buf bytes.Buffer
	w, err := gzip.NewWriterLevel(&buf, gzip.DefaultCompression)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.Write(data); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// gunzip decodes with stock compress/gzip, not the package's pooled readers.
func gunzip(t testing.TB, enc []byte) []byte {
	t.Helper()
	r, err := gzip.NewReader(bytes.NewReader(enc))
	if err != nil {
		t.Fatal(err)
	}
	out, err := io.ReadAll(r)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestGzipKeepsCompressibleChunksIdentical: Materializer files whose text
// was pushed deep into later chunks by B-pattern prepends still compress to
// exactly the bytes gzip.DefaultCompression gives, wherever the text lands;
// only chunks that deflate saves nothing on are stored, and the total never
// grows.
func TestGzipKeepsCompressibleChunksIdentical(t *testing.T) {
	m := trace.NewMaterializer(3)
	data, err := m.Apply(trace.Op{Action: trace.ADD, Path: "f", Size: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	var identical, stored, refTotal, gotTotal int
	for _, change := range []int64{0, 150 << 10, 300 << 10, 700 << 10} {
		if change > 0 {
			data, err = m.Apply(trace.Op{Action: trace.UPDATE, Path: "f", Pattern: trace.PatternB, ChangeBytes: change})
			if err != nil {
				t.Fatal(err)
			}
		}
		chunks, err := SplitBytes(NewFixed(), data)
		if err != nil {
			t.Fatal(err)
		}
		for i, ch := range chunks {
			ref := gzipDefault(t, ch.Data)
			got, err := Compress(ch.Data, Gzip)
			if err != nil {
				t.Fatal(err)
			}
			refTotal += len(ref)
			gotTotal += len(got)
			if !bytes.Equal(gunzip(t, got), ch.Data) {
				t.Fatalf("prepend %d chunk %d: round trip mismatch", change, i)
			}
			switch {
			case bytes.Equal(got, ref):
				identical++
			case len(ref)*20 < len(ch.Data)*19:
				// Default gzip saves 5% or more: this chunk is compressible
				// and must not have been stored.
				t.Fatalf("prepend %d chunk %d: %d -> %d bytes, want the default encoding (%d bytes)",
					change, i, len(ch.Data), len(got), len(ref))
			default:
				stored++
			}
		}
	}
	t.Logf("identical=%d stored=%d total=%d default=%d", identical, stored, gotTotal, refTotal)
	if identical == 0 || stored == 0 {
		t.Fatalf("identical=%d stored=%d: want both kinds of chunk", identical, stored)
	}
	if gotTotal*1000 > refTotal*1001 {
		t.Fatalf("total %d bytes, default gzip %d: storing grew the output", gotTotal, refTotal)
	}
}

// TestGzipStoresIncompressibleChunk: a random chunk costs at most 0.1% of
// framing and stays a plain gzip stream.
func TestGzipStoresIncompressibleChunk(t *testing.T) {
	data := benchData(DefaultChunkSize)
	enc, err := Compress(data, Gzip)
	if err != nil {
		t.Fatal(err)
	}
	if limit := len(data) + len(data)/1000; len(enc) > limit {
		t.Fatalf("random chunk encoded to %d bytes, want <= %d", len(enc), limit)
	}
	if !bytes.Equal(gunzip(t, enc), data) {
		t.Fatal("stock gzip decodes a different chunk")
	}
	if len(enc) > storedSize(len(data)) {
		t.Fatalf("encoded %d bytes, storedSize bound %d", len(enc), storedSize(len(data)))
	}
}

// TestDecompressPresizeCap: the ISIZE trailer is only a hint. A stream
// that lies about its size still decodes, and a cap of 0 decodes too.
func TestDecompressPresizeCap(t *testing.T) {
	data := mixedData(100_000, 0.5)
	enc, err := Compress(data, Gzip)
	if err != nil {
		t.Fatal(err)
	}
	for _, presizeCap := range []int{0, 10, len(data), 1 << 30} {
		got, err := Decompress(enc, Gzip, presizeCap)
		if err != nil || !bytes.Equal(got, data) {
			t.Fatalf("cap %d: %v", presizeCap, err)
		}
	}
	lying := bytes.Clone(enc)
	copy(lying[len(lying)-4:], []byte{0xff, 0xff, 0xff, 0x7f}) // ISIZE claims ~2 GB
	if _, err := Decompress(lying, Gzip, 1<<20); err == nil {
		t.Fatal("a wrong ISIZE trailer must fail the gzip check")
	}
	if _, err := Decompress([]byte{1, 2}, Gzip, 10); err == nil {
		t.Fatal("garbage must not decode")
	}
}

// TestCompressConcurrent drives the pooled writers and readers from many
// goroutines at once; run it under -race.
func TestCompressConcurrent(t *testing.T) {
	inputs := [][]byte{
		nil,
		[]byte("hello"),
		benchData(64 << 10),
		mixedData(96<<10, 0.3),
		bytes.Repeat([]byte("stacksync "), 5000),
	}
	var wg sync.WaitGroup
	errs := make(chan error, 16)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			r := rand.New(rand.NewSource(int64(g)))
			for i := 0; i < 10; i++ {
				in := inputs[r.Intn(len(inputs))]
				enc, err := Compress(in, Gzip)
				if err != nil {
					errs <- err
					return
				}
				dec, err := Decompress(enc, Gzip, len(in))
				if err != nil {
					errs <- err
					return
				}
				if !bytes.Equal(dec, in) {
					errs <- fmt.Errorf("goroutine %d: round trip mismatch", g)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}
