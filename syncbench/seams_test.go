package main

import (
	"bytes"
	"context"
	"math/rand"
	"testing"

	"stacksync/internal/chunker"
	"stacksync/internal/codec"
	"stacksync/internal/mq"
	"stacksync/internal/objstore"
	"stacksync/internal/objstore/storetest"
)

func testSeam() seam { return seam{rec: newRecorder(), scope: &opScope{}} }

func TestTimedStoreConformance(t *testing.T) {
	storetest.Run(t, func(t *testing.T) objstore.Store {
		return &timedStore{seam: testSeam(), inner: objstore.NewMemory()}
	})
}

func TestTimedStoreRecordsSpans(t *testing.T) {
	s := testSeam()
	st := &timedStore{seam: s, inner: objstore.NewMemory()}
	ctx := context.Background()
	if err := st.EnsureContainer(ctx, "c"); err != nil {
		t.Fatal(err)
	}
	s.scope.set("op-1")
	if err := st.PutMulti(ctx, "c", []objstore.Object{{Key: "a", Data: []byte("xyz")}}); err != nil {
		t.Fatal(err)
	}
	s.scope.clear()
	if _, err := st.ExistsMulti(ctx, "c", []string{"a", "b"}); err != nil {
		t.Fatal(err)
	}
	spans := s.rec.snapshot()
	if len(spans) != 2 {
		t.Fatalf("spans = %+v", spans)
	}
	if put := spans[0]; put.Name != "objstore.put" || put.Trace != "op-1" || put.Bytes != 3 || put.Count != 1 {
		t.Fatalf("put span = %+v", put)
	}
	if probe := spans[1]; probe.Name != "objstore.probe" || probe.Trace != "" || probe.Count != 2 || probe.Hits != 1 {
		t.Fatalf("probe span = %+v", probe)
	}
}

func TestTimedCodecKeepsName(t *testing.T) {
	for _, name := range []string{"json", "gob", "bin"} {
		inner, err := codec.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		c := &timedCodec{seam: testSeam(), inner: inner}
		if c.Name() != inner.Name() {
			t.Fatalf("%s: Name() = %q", name, c.Name())
		}
		type payload struct {
			A string
			B int
		}
		in := payload{A: "x", B: 7}
		got, err := c.MarshalAppend([]byte("prefix"), in)
		if err != nil {
			t.Fatal(err)
		}
		want, err := inner.MarshalAppend([]byte("prefix"), in)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("%s: encoding differs from the inner codec", name)
		}
		var out payload
		if err := c.Unmarshal(got[len("prefix"):], &out); err != nil || out != in {
			t.Fatalf("%s: round trip = %+v, %v", name, out, err)
		}
	}
}

func TestTimedChunkerIdenticalChunks(t *testing.T) {
	data := make([]byte, 3*chunker.DefaultChunkSize+123)
	rand.New(rand.NewSource(1)).Read(data)
	inner := chunker.NewFixed()
	want, err := chunker.SplitBytes(inner, data)
	if err != nil {
		t.Fatal(err)
	}
	s := testSeam()
	s.scope.set("op-9")
	c := &timedChunker{seam: s, inner: inner}
	if c.Name() != inner.Name() {
		t.Fatalf("Name() = %q", c.Name())
	}
	got, err := chunker.SplitBytes(c, data)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("%d chunks, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i].Fingerprint != want[i].Fingerprint || !bytes.Equal(got[i].Data, want[i].Data) {
			t.Fatalf("chunk %d differs", i)
		}
	}
	if op := s.rec.opOfChunk(want[0].Fingerprint); op != "op-9" {
		t.Fatalf("chunk tied to %q, want op-9", op)
	}
}

// plainMQ hides the broker's batch fast path.
type plainMQ struct{ mq.MQ }

func TestWrapMQKeepsBatchCapability(t *testing.T) {
	broker := mq.NewBroker()
	defer broker.Close()
	if _, ok := wrapMQ(testSeam(), broker).(mq.BatchPublisher); !ok {
		t.Fatal("wrapping a BatchPublisher lost the batch fast path")
	}
	if _, ok := wrapMQ(testSeam(), plainMQ{broker}).(mq.BatchPublisher); ok {
		t.Fatal("wrapping a plain MQ invented a batch fast path")
	}
}

func TestWrapMQPublishesThrough(t *testing.T) {
	broker := mq.NewBroker()
	defer broker.Close()
	s := testSeam()
	m := wrapMQ(s, broker)
	if err := m.DeclareQueue("q"); err != nil {
		t.Fatal(err)
	}
	pubs := []mq.Publication{
		{Key: "q", Message: mq.Message{Body: []byte("one")}},
		{Key: "q", Message: mq.Message{Body: []byte("two")}},
	}
	if err := mq.PublishAll(m, pubs); err != nil {
		t.Fatal(err)
	}
	st, err := broker.QueueStats("q")
	if err != nil || st.Depth != 2 {
		t.Fatalf("queue stats = %+v, %v", st, err)
	}
	spans := s.rec.snapshot()
	if len(spans) != 1 || spans[0].Name != "mq.publish" || spans[0].Count != 2 || spans[0].Bytes != 6 {
		t.Fatalf("spans = %+v", spans)
	}
}

func TestDisabledRecorderPassesThrough(t *testing.T) {
	s := testSeam()
	s.rec.enabled.Store(false)
	st := &timedStore{seam: s, inner: objstore.NewMemory()}
	ctx := context.Background()
	if err := st.EnsureContainer(ctx, "c"); err != nil {
		t.Fatal(err)
	}
	if err := st.Put(ctx, "c", "k", []byte("v")); err != nil {
		t.Fatal(err)
	}
	if got, err := st.Get(ctx, "c", "k"); err != nil || string(got) != "v" {
		t.Fatalf("get = %q, %v", got, err)
	}
	if n := len(s.rec.snapshot()); n != 0 {
		t.Fatalf("disabled recorder kept %d spans", n)
	}
}
