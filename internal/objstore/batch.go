package objstore

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
)

// Binary batch framing of the gateway's multi=put and multi=get bodies.
//
//	request entry:  uvarint keylen, key, uvarint datalen, data   (get: datalen 0)
//	get reply entry: found byte (0 or 1), uvarint datalen, data  (miss: datalen 0)
//
// A request is a sequence of entries up to the end of the body; a get
// reply has exactly one entry per requested key, in request order. Every
// declared length is checked against what the body can still hold before
// its buffer is allocated, so a short body with a huge length allocates
// nothing.

var (
	// errBatchTooLarge marks a batch body beyond the gateway's size limit.
	errBatchTooLarge = errors.New("batch body too large")
	// errBatchShort marks a declared length beyond the end of the body.
	errBatchShort = errors.New("declared length exceeds body")
)

// batchReader decodes entry fields from a body. left is how many bytes the
// body may still hold; a field that would need more fails with overrun.
type batchReader struct {
	r       *bufio.Reader
	left    int64
	overrun error
}

func newBatchReader(r io.Reader, left int64, overrun error) *batchReader {
	return &batchReader{r: bufio.NewReader(r), left: left, overrun: overrun}
}

// ReadByte implements io.ByteReader for binary.ReadUvarint, counting the
// byte against left.
func (b *batchReader) ReadByte() (byte, error) {
	c, err := b.r.ReadByte()
	if err != nil {
		return 0, err
	}
	if b.left--; b.left < 0 {
		return 0, b.overrun
	}
	return c, nil
}

// length reads one uvarint length and checks it against left. io.EOF is
// returned only when the body ends before the length's first byte.
func (b *batchReader) length() (int, error) {
	n, err := binary.ReadUvarint(b)
	if err != nil {
		return 0, err
	}
	if n > uint64(b.left) {
		return 0, b.overrun
	}
	return int(n), nil
}

// field reads one length-prefixed byte string into an exactly sized,
// non-nil buffer.
func (b *batchReader) field() ([]byte, error) {
	n, err := b.length()
	if err != nil {
		return nil, err
	}
	buf := make([]byte, n)
	if _, err := io.ReadFull(b.r, buf); err != nil {
		return nil, noEOF(err)
	}
	b.left -= int64(n)
	return buf, nil
}

// noEOF turns a clean end of body into a truncation: only an entry
// boundary may end a body.
func noEOF(err error) error {
	if err == io.EOF {
		return io.ErrUnexpectedEOF
	}
	return err
}

// encodeBatchRequest frames objects as the slices of one request body:
// the entry headers and keys share one buffer, and each object's data is
// referenced, not copied.
func encodeBatchRequest(objs []Object) [][]byte {
	size := 0
	for _, o := range objs {
		size += uvarintLen(len(o.Key)) + len(o.Key) + uvarintLen(len(o.Data))
	}
	meta := make([]byte, 0, size) // never grows, so earlier slices stay valid
	body := make([][]byte, 0, 2*len(objs)+1)
	mark := 0
	for _, o := range objs {
		meta = binary.AppendUvarint(meta, uint64(len(o.Key)))
		meta = append(meta, o.Key...)
		meta = binary.AppendUvarint(meta, uint64(len(o.Data)))
		if len(o.Data) > 0 {
			body = append(body, meta[mark:], o.Data)
			mark = len(meta)
		}
	}
	if mark < len(meta) {
		body = append(body, meta[mark:])
	}
	return body
}

// readBatchRequest decodes a request body of at most left bytes into
// objects, each key and data in its own exactly sized buffer.
func readBatchRequest(r io.Reader, left int64, overrun error) ([]Object, error) {
	b := newBatchReader(r, left, overrun)
	var objs []Object
	for {
		key, err := b.field()
		if err == io.EOF {
			return objs, nil
		}
		if err != nil {
			return nil, err
		}
		if len(key) == 0 {
			return nil, errors.New("empty key")
		}
		data, err := b.field()
		if err != nil {
			return nil, noEOF(err)
		}
		objs = append(objs, Object{Key: string(key), Data: data})
	}
}

// writeGetReply answers multi=get entry by entry, with Content-Length set;
// a nil entry of data is a miss.
func writeGetReply(w http.ResponseWriter, data [][]byte) {
	total := 0
	for _, d := range data {
		total += 1 + uvarintLen(len(d)) + len(d)
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set("Content-Length", strconv.Itoa(total))
	var hdr [1 + binary.MaxVarintLen64]byte
	for _, d := range data {
		hdr[0] = 0
		if d != nil {
			hdr[0] = 1
		}
		n := 1 + binary.PutUvarint(hdr[1:], uint64(len(d)))
		if _, err := w.Write(hdr[:n]); err != nil {
			return
		}
		if _, err := w.Write(d); err != nil {
			return
		}
	}
}

// readGetReply decodes a multi=get reply of at most left bytes holding
// exactly n entries. Found objects come back non-nil (empty objects as
// empty slices), misses as nil.
func readGetReply(r io.Reader, left int64, overrun error, n int) ([][]byte, error) {
	b := newBatchReader(r, left, overrun)
	out := make([][]byte, n)
	for i := range out {
		found, err := b.ReadByte()
		if err != nil {
			return nil, fmt.Errorf("entry %d: %w", i, noEOF(err))
		}
		if found > 1 {
			return nil, fmt.Errorf("entry %d: bad found flag %d", i, found)
		}
		data, err := b.field()
		if err != nil {
			return nil, fmt.Errorf("entry %d: %w", i, noEOF(err))
		}
		if found == 0 {
			if len(data) != 0 {
				return nil, fmt.Errorf("entry %d: miss carries %d bytes", i, len(data))
			}
			continue
		}
		out[i] = data
	}
	if _, err := b.ReadByte(); err != io.EOF {
		return nil, fmt.Errorf("trailing bytes after %d entries", n)
	}
	return out, nil
}

// uvarintLen is the encoded length of x as a uvarint.
func uvarintLen(x int) int {
	n := 1
	for u := uint64(x); u >= 0x80; u >>= 7 {
		n++
	}
	return n
}
