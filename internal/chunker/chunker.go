// Package chunker splits files into content-addressed chunks (paper §4.1).
// StackSync operates below the file level: files are cut into chunks, each
// identified by the SHA-1 of its content, so only modified chunks travel to
// the Storage back-end. Both fixed-size chunking (the default, 512 KB) and
// content-defined chunking are provided; the paper keeps the fixed chunker
// despite the boundary-shifting problem because of its lower CPU cost.
package chunker

import (
	"crypto/sha1"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
)

// DefaultChunkSize is the paper's fixed chunk size (512 KB).
const DefaultChunkSize = 512 * 1024

// Chunk is one content-addressed piece of a file.
type Chunk struct {
	// Fingerprint is the hex SHA-1 of Data — 20 bytes, as in §4.1.
	Fingerprint string
	// Data is the raw (uncompressed) chunk content.
	Data []byte
}

// Size returns the chunk length in bytes.
func (c Chunk) Size() int { return len(c.Data) }

// Fingerprint computes the hex SHA-1 of data.
func Fingerprint(data []byte) string {
	sum := sha1.Sum(data)
	return hex.EncodeToString(sum[:])
}

// Chunker cuts a byte stream into chunks.
type Chunker interface {
	// Split consumes r entirely and returns its chunks in order. An empty
	// input yields no chunks.
	Split(r io.Reader) ([]Chunk, error)
	// Name identifies the strategy for logs and experiment labels.
	Name() string
}

// Fixed is the static chunker: every chunk is exactly Size bytes except the
// final one.
type Fixed struct {
	// ChunkSize is the cut length; DefaultChunkSize when zero.
	ChunkSize int
}

var _ Chunker = Fixed{}

// NewFixed returns a Fixed chunker with the paper's 512 KB default.
func NewFixed() Fixed { return Fixed{ChunkSize: DefaultChunkSize} }

// Name returns "fixed".
func (f Fixed) Name() string { return "fixed" }

// Split cuts r into ChunkSize pieces.
func (f Fixed) Split(r io.Reader) ([]Chunk, error) {
	size := f.ChunkSize
	if size <= 0 {
		size = DefaultChunkSize
	}
	var chunks []Chunk
	for {
		buf := make([]byte, size)
		n, err := io.ReadFull(r, buf)
		if n > 0 {
			data := buf[:n]
			chunks = append(chunks, Chunk{Fingerprint: Fingerprint(data), Data: data})
		}
		if err == io.EOF || errors.Is(err, io.ErrUnexpectedEOF) {
			return chunks, nil
		}
		if err != nil {
			return nil, fmt.Errorf("chunker: read: %w", err)
		}
	}
}

// SplitBytes is a convenience wrapper over Split for in-memory content.
func SplitBytes(c Chunker, data []byte) ([]Chunk, error) {
	return c.Split(bytesReader(data))
}

// Fingerprints projects the fingerprint list of a chunk sequence.
func Fingerprints(chunks []Chunk) []string {
	fps := make([]string, len(chunks))
	for i, c := range chunks {
		fps[i] = c.Fingerprint
	}
	return fps
}

// Diff partitions chunks into those already known (per the has predicate —
// typically the client's local fingerprint database, giving the per-user
// deduplication of §4.1) and the new ones that must be uploaded.
func Diff(chunks []Chunk, has func(fingerprint string) bool) (known, fresh []Chunk) {
	seen := make(map[string]bool, len(chunks))
	for _, c := range chunks {
		if has(c.Fingerprint) || seen[c.Fingerprint] {
			known = append(known, c)
			continue
		}
		seen[c.Fingerprint] = true
		fresh = append(fresh, c)
	}
	return known, fresh
}

type sliceReader struct {
	data []byte
	off  int
}

func bytesReader(data []byte) io.Reader { return &sliceReader{data: data} }

func (r *sliceReader) Read(p []byte) (int, error) {
	if r.off >= len(r.data) {
		return 0, io.EOF
	}
	n := copy(p, r.data[r.off:])
	r.off += n
	return n, nil
}
