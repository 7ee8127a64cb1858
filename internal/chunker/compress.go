package chunker

import (
	"bytes"
	"compress/flate"
	"compress/gzip"
	"encoding/binary"
	"fmt"
	"io"
	"sync"
)

// Compression selects the algorithm applied to chunks before transmission.
// The paper compresses every chunk with Gzip or Bzip2 (§4.1); gzip and a
// raw-DEFLATE variant are provided, plus None for ablation runs.
type Compression int

const (
	// None disables compression.
	None Compression = iota + 1
	// Gzip is the default algorithm.
	Gzip
	// Flate is raw DEFLATE (smaller framing than gzip).
	Flate
)

// String names the compression for logs and headers.
func (c Compression) String() string {
	switch c {
	case None:
		return "none"
	case Gzip:
		return "gzip"
	case Flate:
		return "flate"
	default:
		return "unknown"
	}
}

// ParseCompression resolves a compression name.
func ParseCompression(s string) (Compression, error) {
	switch s {
	case "none", "":
		return None, nil
	case "gzip":
		return Gzip, nil
	case "flate":
		return Flate, nil
	default:
		return 0, fmt.Errorf("chunker: unknown compression %q", s)
	}
}

// incompressibleSaving is the least share of a chunk a BestSpeed probe must
// save for the chunk to be deflated at all: a chunk that saves less (media,
// archives, already-compressed data) is stored instead, 1 part in 50.
const incompressibleSaving = 50

// Pooled codecs: a gzip.Writer keeps its level across Reset, so each level
// has its own pool.
var (
	probePool = sync.Pool{New: func() any {
		w, _ := flate.NewWriter(io.Discard, flate.BestSpeed)
		return w
	}}
	gzipDefaultPool = sync.Pool{New: func() any { return gzip.NewWriter(io.Discard) }}
	gzipStoredPool  = sync.Pool{New: func() any {
		w, _ := gzip.NewWriterLevel(io.Discard, gzip.NoCompression)
		return w
	}}
	gzipReaderPool = sync.Pool{New: func() any { return new(gzip.Reader) }}
)

// byteCounter is an io.Writer that only counts.
type byteCounter int

func (c *byteCounter) Write(p []byte) (int, error) {
	*c += byteCounter(len(p))
	return len(p), nil
}

// deflates reports whether deflating data is worth it: a whole-chunk
// BestSpeed pass into a counter must save at least 1/incompressibleSaving
// of the bytes. The whole chunk is probed, not a sample, because an edit
// can move a file's compressible part anywhere in the chunk.
func deflates(data []byte) bool {
	var n byteCounter
	w := probePool.Get().(*flate.Writer)
	defer probePool.Put(w)
	w.Reset(&n)
	_, _ = w.Write(data) // a byteCounter never fails
	_ = w.Close()
	return (int64(len(data))-int64(n))*incompressibleSaving >= int64(len(data))
}

// Compress encodes data with the selected algorithm.
//
// Gzip decides per chunk: a chunk that deflates (see deflates) is
// compressed at gzip.DefaultCompression, byte for byte what gzip.NewWriter
// writes; any other chunk is written as stored blocks (level 0). Both are
// plain gzip streams, so every gzip reader decodes either.
func Compress(data []byte, c Compression) ([]byte, error) {
	switch c {
	case None:
		return data, nil
	case Gzip:
		var buf bytes.Buffer
		pool := &gzipDefaultPool
		if !deflates(data) {
			pool = &gzipStoredPool
			buf.Grow(storedSize(len(data)))
		}
		w := pool.Get().(*gzip.Writer)
		defer pool.Put(w)
		w.Reset(&buf)
		if _, err := w.Write(data); err != nil {
			return nil, fmt.Errorf("chunker: gzip write: %w", err)
		}
		if err := w.Close(); err != nil {
			return nil, fmt.Errorf("chunker: gzip close: %w", err)
		}
		return buf.Bytes(), nil
	case Flate:
		var buf bytes.Buffer
		w, err := flate.NewWriter(&buf, flate.DefaultCompression)
		if err != nil {
			return nil, fmt.Errorf("chunker: flate writer: %w", err)
		}
		if _, err := w.Write(data); err != nil {
			return nil, fmt.Errorf("chunker: flate write: %w", err)
		}
		if err := w.Close(); err != nil {
			return nil, fmt.Errorf("chunker: flate close: %w", err)
		}
		return buf.Bytes(), nil
	default:
		return nil, fmt.Errorf("chunker: unknown compression %d", c)
	}
}

// Decompress reverses Compress. For Gzip the output is presized from the
// stream's ISIZE trailer, but never beyond presizeCap (typically the size
// of the file the chunk belongs to), so a hostile stream cannot force a
// large allocation before a byte is inflated; presizeCap <= 0 disables
// presizing. The cap does not bound the output itself.
func Decompress(data []byte, c Compression, presizeCap int) ([]byte, error) {
	switch c {
	case None:
		return data, nil
	case Gzip:
		r := gzipReaderPool.Get().(*gzip.Reader)
		defer gzipReaderPool.Put(r)
		if err := r.Reset(bytes.NewReader(data)); err != nil {
			return nil, fmt.Errorf("chunker: gzip reader: %w", err)
		}
		out, err := readAllSized(r, min(gzipSize(data), presizeCap))
		if err != nil {
			return nil, fmt.Errorf("chunker: gunzip: %w", err)
		}
		return out, nil
	case Flate:
		r := flate.NewReader(bytes.NewReader(data))
		defer r.Close()
		out, err := io.ReadAll(r)
		if err != nil {
			return nil, fmt.Errorf("chunker: inflate: %w", err)
		}
		return out, nil
	default:
		return nil, fmt.Errorf("chunker: unknown compression %d", c)
	}
}

// storedSize bounds the length of a stored-block gzip stream of n bytes:
// 18 bytes of gzip header and trailer, 5 per stored block of at most
// 65535 bytes, and a final empty block.
func storedSize(n int) int {
	return n + 18 + 5*(n/65535+2)
}

// gzipSize reads the ISIZE trailer of a gzip stream: its uncompressed
// length mod 2^32, as claimed by the stream (an untrusted hint).
func gzipSize(data []byte) int {
	if len(data) < 4 {
		return 0
	}
	return int(binary.LittleEndian.Uint32(data[len(data)-4:]))
}

// readAllSized is io.ReadAll starting from a buffer of capacity n+1, so a
// stream of exactly n bytes reaches EOF without growing the buffer.
func readAllSized(r io.Reader, n int) ([]byte, error) {
	b := make([]byte, 0, max(n, 0)+1)
	for {
		m, err := r.Read(b[len(b):cap(b)])
		b = b[:len(b)+m]
		if err == io.EOF {
			return b, nil
		}
		if err != nil {
			return nil, err
		}
		if len(b) == cap(b) {
			b = append(b, 0)[:len(b)]
		}
	}
}
