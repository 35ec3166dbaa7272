package proto

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

var updateCorpus = flag.Bool("update-corpus", false, "rewrite testdata/fuzz/FuzzDecode from fuzzSeeds")

const corpusDir = "testdata/fuzz/FuzzDecode"

// fuzzSeeds returns one populated message of every Kind.
func fuzzSeeds() []Message {
	byKind := map[Kind]Message{}
	extra := []Message{
		&TableStateRequest{Table: "employees"},
		&TxPrepareRequest{TxID: 7, Ops: [][]byte{Encode(&DeleteRequest{Table: "t", RowIDs: []uint64{1}})}},
		&TxCommitRequest{TxID: 7},
		&TxAbortRequest{TxID: 7},
		&TxOpsRecord{TxID: 7, Provider: 2, Ops: [][]byte{{1, 2}, nil}},
		&TxMarkRecord{TxID: 7, State: TxStateCommitted},
	}
	for _, m := range append(allMessages(), extra...) {
		if _, ok := byKind[m.Kind()]; !ok {
			byKind[m.Kind()] = m
		}
	}
	var out []Message
	for k := KPing; k <= KTxMark; k++ {
		if m, ok := byKind[k]; ok {
			out = append(out, m)
		}
	}
	return out
}

// seedName names a seed's corpus file after its message type.
func seedName(m Message) string {
	return strings.TrimPrefix(fmt.Sprintf("%T", m), "*proto.")
}

// corpusFile renders data in the go test fuzz corpus format.
func corpusFile(data []byte) string {
	return fmt.Sprintf("go test fuzz v1\n[]byte(%q)\n", data)
}

// TestFuzzCorpusCoversEveryKind checks that the checked-in seed corpus
// holds the current encoding of one message per Kind. Run with
// -update-corpus after changing the codec or the seeds.
func TestFuzzCorpusCoversEveryKind(t *testing.T) {
	seeds := fuzzSeeds()
	if want := int(KTxMark); len(seeds) != want {
		t.Fatalf("fuzzSeeds covers %d kinds, want %d", len(seeds), want)
	}
	if *updateCorpus {
		if err := os.MkdirAll(corpusDir, 0o755); err != nil {
			t.Fatal(err)
		}
		for _, m := range seeds {
			if err := os.WriteFile(filepath.Join(corpusDir, seedName(m)), []byte(corpusFile(Encode(m))), 0o644); err != nil {
				t.Fatal(err)
			}
		}
	}
	for _, m := range seeds {
		got, err := os.ReadFile(filepath.Join(corpusDir, seedName(m)))
		if err != nil {
			t.Fatalf("%v (regenerate with -update-corpus)", err)
		}
		if string(got) != corpusFile(Encode(m)) {
			t.Errorf("%s: corpus file is stale (regenerate with -update-corpus)", seedName(m))
		}
	}
}

// decodeAllocLimit bounds the heap bytes Decode may allocate for an input
// of n bytes. Every list count is checked against the bytes that remain,
// so allocation is linear in the input: the largest factors are a 24-byte
// cell slice header per one-byte cell and a 32-byte Row per two-byte row.
// The constant term covers the message struct and error values.
func decodeAllocLimit(n int) uint64 { return 128*uint64(n) + 8<<10 }

// FuzzDecode checks that Decode never panics, that what it allocates
// stays linear in its input, and that any message it accepts re-encodes to
// bytes that decode to an equal message.
func FuzzDecode(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		var msg Message
		var err error
		got := allocatedBytes(func() { msg, err = Decode(data) })
		if limit := decodeAllocLimit(len(data)); got > limit {
			t.Fatalf("decoding %d bytes allocated %d bytes (limit %d)", len(data), got, limit)
		}
		if err != nil {
			return
		}
		again, err := Decode(Encode(msg))
		if err != nil {
			t.Fatalf("re-encoded %T does not decode: %v", msg, err)
		}
		if !reflect.DeepEqual(msg, again) {
			t.Fatalf("round trip changed the message:\n first %#v\nsecond %#v", msg, again)
		}
	})
}
