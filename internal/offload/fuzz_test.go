package offload

import (
	"bytes"
	"encoding/binary"
	"math"
	"reflect"
	"runtime"
	"slices"
	"testing"

	"privehd/internal/intscore"
	"privehd/internal/registry"
)

// fuzzMaxBatch is the batch limit of the fuzzed server, small so fuzzed
// batches cross it often.
const fuzzMaxBatch = 4

// fuzzServer returns a server (not listening; the fuzz calls answer
// directly) over two models: "int", an integer-valued model and the
// default, and "fractional", a non-integer one served in fixed point. Both
// answer partial scores.
func fuzzServer(tb testing.TB) *Server {
	tb.Helper()
	reg := registry.New()
	if _, err := reg.Register("int", packedTestModel(3, 8), registry.EncoderInfo{}); err != nil {
		tb.Fatal(err)
	}
	fractional := packedTestModel(3, 8)
	fractional.Add(1, []float64{0.5, 0, 0, 0, 0, 0, 0, 0.25})
	if _, err := reg.Register("fractional", fractional, registry.EncoderInfo{}); err != nil {
		tb.Fatal(err)
	}
	s := NewRegistryServer(reg, WithMaxBatch(fuzzMaxBatch), WithWorkers(2))
	tb.Cleanup(func() { s.Close() })
	return s
}

// fuzzOps are the ops a fuzzed frame may carry, the last one unknown.
var fuzzOps = []Op{OpClassify, OpPartialScores, OpPing, OpListModels, 200}

// fuzzModels are the model names a fuzzed frame may be bound to, the last
// one unregistered.
var fuzzModels = []string{"int", "fractional", "missing"}

// fuzzRequest decodes fuzz inputs into a frame. Each query's shape byte
// (shape rotated by the query index) picks its wire form: bit 0 a Vector
// instead of Packed, bit 1 both, bit 2 a wrong dimension, bit 3 neither
// field. Packed symbols and vector values cycle through symbols; a byte
// outside the −2…+1 alphabet keeps only its two low bits in the planes.
func fuzzRequest(op, n, shape uint8, budget int64, symbols []byte, dim int) Request {
	req := Request{ID: 1, Op: fuzzOps[int(op)%len(fuzzOps)], BudgetNs: budget}
	batch := int(n) % (fuzzMaxBatch + 3)
	for i := 0; i < batch; i++ {
		qs := shape>>(i%4) | shape<<(8-i%4)
		d := dim
		if qs&4 != 0 {
			d = dim + 1 - 2*int(qs>>4&1) // one too long or one too short
		}
		var q Query
		packed := make([]int8, d)
		vector := make([]float64, d)
		for k := range packed {
			if len(symbols) > 0 {
				packed[k] = int8(symbols[(i*d+k)%len(symbols)])
			}
			vector[k] = float64(packed[k]) / 2
		}
		switch {
		case qs&8 != 0:
		case qs&2 != 0:
			q = Query{Vector: vector, Packed: intscore.Split(packed)}
		case qs&1 != 0:
			q = Query{Vector: vector}
		default:
			q = Query{Packed: intscore.Split(packed)}
		}
		req.Queries = append(req.Queries, q)
	}
	return req
}

// FuzzAnswer is the contract of the server's single answer path: no frame,
// however malformed, panics it, and every accepted frame is answered in
// full — one result (or partial-score row) per query, each as wide as the
// model has classes. Partial scores are refused only for a full-precision
// query, on either model, and the ones answered reconstruct the model's
// classify scores exactly.
func FuzzAnswer(f *testing.F) {
	valid := []byte{1, 0, 0xff, 0xfe}                                  // 1, 0, −1, −2
	f.Add(uint8(0), uint8(0), uint8(3), uint8(0), int64(0), valid)     // classify
	f.Add(uint8(1), uint8(0), uint8(3), uint8(0), int64(0), valid)     // partial scores
	f.Add(uint8(2), uint8(0), uint8(0), uint8(0), int64(0), valid)     // ping
	f.Add(uint8(3), uint8(0), uint8(0), uint8(0), int64(0), valid)     // list models
	f.Add(uint8(4), uint8(0), uint8(1), uint8(0), int64(0), valid)     // codeBadOp
	f.Add(uint8(0), uint8(0), uint8(6), uint8(0), int64(0), valid)     // codeBatch
	f.Add(uint8(0), uint8(0), uint8(2), uint8(0), int64(0), []byte{5}) // a byte past the alphabet
	f.Add(uint8(0), uint8(0), uint8(1), uint8(4), int64(0), valid)     // codeDim
	f.Add(uint8(0), uint8(0), uint8(1), uint8(8), int64(0), valid)     // codeDim, empty query
	f.Add(uint8(1), uint8(0), uint8(1), uint8(1), int64(0), valid)     // codePartial: Vector query
	f.Add(uint8(1), uint8(1), uint8(1), uint8(0), int64(0), valid)     // partial scores, fractional model
	f.Add(uint8(0), uint8(2), uint8(1), uint8(0), int64(0), valid)     // codeUnknownModel
	f.Add(uint8(0), uint8(0), uint8(4), uint8(0), int64(1), valid)     // codeDeadline
	f.Add(uint8(0), uint8(1), uint8(4), uint8(2), int64(1e9), valid)   // both fields, budgeted

	s := fuzzServer(f)
	known := map[string]bool{
		codeBatch: true, codeDim: true, codeSymbol: true, codeUnknownModel: true,
		codeBadOp: true, codePartial: true, codeDeadline: true,
	}
	f.Fuzz(func(t *testing.T, op, model, n, shape uint8, budget int64, symbols []byte) {
		name := fuzzModels[int(model)%len(fuzzModels)]
		req := fuzzRequest(op, n, shape, budget, symbols, 8)
		reply := s.answer(name, req, nil)
		if reply.Code != "" {
			if !known[reply.Code] {
				t.Fatalf("op %d refused with unknown code %q (%s)", req.Op, reply.Code, reply.Detail)
			}
			if len(reply.Results) != 0 || len(reply.Partials) != 0 {
				t.Fatalf("refusal %q carries %d results and %d partial rows", reply.Code, len(reply.Results), len(reply.Partials))
			}
			if reply.Code == codePartial && !slices.ContainsFunc(req.Queries, func(q Query) bool { return q.Vector != nil }) {
				t.Fatalf("partial scores of packed queries on model %q refused: %s", name, reply.Detail)
			}
			return
		}
		const classes = 3
		switch req.Op {
		case OpClassify:
			if len(reply.Results) != len(req.Queries) {
				t.Fatalf("%d results for %d queries", len(reply.Results), len(req.Queries))
			}
			for i, r := range reply.Results {
				if len(r.Scores) != classes {
					t.Fatalf("query %d: %d scores, model has %d classes", i, len(r.Scores), classes)
				}
				if r.Label < 0 || r.Label >= classes {
					t.Fatalf("query %d: label %d outside %d classes", i, r.Label, classes)
				}
			}
		case OpPartialScores:
			if len(reply.Partials) != len(req.Queries) {
				t.Fatalf("%d partial rows for %d queries", len(reply.Partials), len(req.Queries))
			}
			for i, row := range reply.Partials {
				if len(row) != classes {
					t.Fatalf("query %d: %d partial scores, model has %d classes", i, len(row), classes)
				}
			}
			if len(reply.NormSq) != classes {
				t.Fatalf("%d class norms, model has %d classes", len(reply.NormSq), classes)
			}
			entry, err := s.reg.Lookup(name)
			if err != nil {
				t.Fatal(err)
			}
			for i, q := range req.Queries {
				want := entry.Scorer.ScoresInto(q.Packed, make([]float64, classes))
				for l, d := range reply.Partials[i] {
					if got := float64(d) / math.Sqrt(reply.NormSq[l]); got != want[l] {
						t.Fatalf("query %d class %d: partials reconstruct %v, classify scores %v", i, l, got, want[l])
					}
				}
			}
		case OpListModels:
			if len(reply.Models) != len(fuzzModels)-1 {
				t.Fatalf("listing has %d models, want %d", len(reply.Models), len(fuzzModels)-1)
			}
		case OpPing:
			if len(reply.Results) != 0 || len(reply.Partials) != 0 || len(reply.Models) != 0 {
				t.Fatalf("ping answered with a payload: %+v", reply)
			}
		default:
			t.Fatalf("unknown op %d was not refused", req.Op)
		}
	})
}

// fuzzAllocBound is the most a fuzzed decode may allocate for a frame
// capped at limit bytes: the body itself plus the decoded form, which
// expands each byte at most a few-fold (2-bit symbols to int8, slice
// headers per query or result).
func fuzzAllocBound(limit int) uint64 { return 32*uint64(limit) + 16<<10 }

// allocDuring reports how many bytes fn allocated.
func allocDuring(fn func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// mustFrame is an encode that cannot fail on the seeds.
func mustFrame(tb testing.TB) func([]byte, error) []byte {
	return func(b []byte, err error) []byte {
		if err != nil {
			tb.Fatal(err)
		}
		return b
	}
}

// overCap is a frame header declaring a body one byte over limit.
func overCap(limit int) []byte {
	return binary.LittleEndian.AppendUint32(nil, uint32(limit+1))
}

// FuzzServerFrame runs arbitrary bytes through the server's request frame
// reader and answer path. No input may panic either or make the reader
// allocate beyond its cap, every accepted frame re-encodes to exactly its
// own bytes, and every answer encodes and decodes back to itself.
func FuzzServerFrame(f *testing.F) {
	const dim = 8
	limit := requestCap(dim, fuzzMaxBatch)
	must := mustFrame(f)
	packed := Query{Packed: intscore.Split([]int8{1, 0, -1, -2, 1, 1, 0, -1})}
	vector := Query{Vector: []float64{0.5, 0, -1, 2, 0, 0, 1, 0}}
	for _, req := range []Request{
		{ID: 1, Queries: []Query{packed, packed}},                  // classify
		{ID: 2, Queries: []Query{vector}, Trace: 7, BudgetNs: 1e9}, // classify, full precision, traced
		{ID: 3, Op: OpPartialScores, Queries: []Query{packed}},     // partial scores
		{ID: 4, Op: OpPing},       // ping
		{ID: 5, Op: OpListModels}, // list models
		{ID: 6, Op: 200},          // codeBadOp
		{ID: 7, Queries: []Query{packed, packed, packed, packed, packed}},    // codeBatch
		{ID: 8, Queries: []Query{{Packed: intscore.Split([]int8{1, 0, 1})}}}, // codeDim
		{ID: 9, Op: OpPartialScores, Queries: []Query{vector}},               // codePartial
		{ID: 10, Queries: []Query{packed}, BudgetNs: 1},                      // codeDeadline
	} {
		f.Add(must(appendRequest(nil, &req)))
	}
	valid := must(appendRequest(nil, &Request{ID: 1, Queries: []Query{packed}}))
	f.Add(valid[:len(valid)-3]) // truncated body
	f.Add(valid[:2])            // truncated length prefix
	f.Add(overCap(limit))       // over the cap

	s := fuzzServer(f)
	f.Fuzz(func(t *testing.T, frame []byte) {
		var req Request
		var body []byte
		var err error
		fb := new(frameBufs)
		if n := allocDuring(func() {
			if body, err = readFrame(bytes.NewReader(frame), nil, limit); err == nil {
				req, err = decodeRequest(body, fb)
			}
		}); n > fuzzAllocBound(limit) {
			t.Fatalf("decoding a %d-byte input allocated %d bytes, bound %d", len(frame), n, fuzzAllocBound(limit))
		}
		if err != nil {
			return
		}
		re, err := appendRequest(nil, &req)
		if err != nil {
			t.Fatalf("accepted frame does not re-encode: %v", err)
		}
		if !bytes.Equal(re, frame[:4+len(body)]) {
			t.Fatalf("re-encoding changed the frame\n got %x\nwant %x", re, frame[:4+len(body)])
		}
		req2, err := readRequest(bytes.NewReader(re), limit)
		if err != nil {
			t.Fatalf("re-encoded frame does not decode: %v", err)
		}
		if re2, _ := appendRequest(nil, &req2); !bytes.Equal(re2, re) {
			t.Fatalf("second round trip changed the frame")
		}
		reply := s.answer("int", req, nil)
		reply.ID = req.ID
		enc, err := appendReply(nil, &reply)
		if err != nil {
			t.Fatalf("answer %+v does not encode: %v", reply, err)
		}
		back, err := decodeReply(enc[4:])
		if err != nil {
			t.Fatalf("encoded answer does not decode: %v", err)
		}
		if reenc, _ := appendReply(nil, &back); !bytes.Equal(reenc, enc) {
			t.Fatalf("answer round trip changed the frame")
		}
	})
}

// FuzzHandshake runs arbitrary bytes through the Hello and ServerHello
// decoders: no panic, no allocation past the handshake cap, and every
// accepted opening re-encodes to exactly its own bytes.
func FuzzHandshake(f *testing.F) {
	must := mustFrame(f)
	f.Add(appendHello(nil, Hello{Dim: 4000, Classes: 26, Model: "isolet"}))
	f.Add(appendHello(nil, Hello{}))
	f.Add(must(appendServerHello(nil, ServerHello{
		Version: ProtocolVersion, Dim: 5000, Classes: 26, MaxBatch: DefaultMaxBatch,
		MinSymbol: MinSymbol, MaxSymbol: MaxSymbol, Model: "m", ModelVersion: 3,
		Encoding: 1, Levels: 100, Features: 617, Seed: 42,
		Shard: &registry.ShardInfo{DimOffset: 5000, DimLen: 5000, ClassCount: 26, FullDim: 10000, FullClasses: 26},
	})))
	for _, code := range wireCodes[1:] {
		f.Add(must(appendServerHello(nil, ServerHello{Version: ProtocolVersion, Code: code, Detail: "refused"})))
	}
	valid := appendHello(nil, Hello{Dim: 4, Model: "m"})
	f.Add(valid[:len(valid)-1])                               // truncated
	f.Add(append(valid[:4:4], overCap(handshakeFrameCap)...)) // over the cap

	f.Fuzz(func(t *testing.T, opening []byte) {
		var h Hello
		var herr error
		if n := allocDuring(func() { h, herr = ReadHello(bytes.NewReader(opening)) }); n > fuzzAllocBound(handshakeFrameCap) {
			t.Fatalf("Hello decode allocated %d bytes", n)
		}
		if herr == nil {
			re := appendHello(nil, h)
			if !bytes.Equal(re, opening[:len(re)]) {
				t.Fatalf("Hello re-encoding changed the opening\n got %x\nwant %x", re, opening[:len(re)])
			}
			if h2, err := ReadHello(bytes.NewReader(re)); err != nil || h2 != h {
				t.Fatalf("Hello round trip: %+v, %v; want %+v", h2, err, h)
			}
		}
		var sh ServerHello
		var serr error
		if n := allocDuring(func() { sh, serr = ReadServerHello(bytes.NewReader(opening)) }); n > fuzzAllocBound(handshakeFrameCap) {
			t.Fatalf("ServerHello decode allocated %d bytes", n)
		}
		if serr == nil {
			re, err := appendServerHello(nil, sh)
			if err != nil {
				t.Fatalf("accepted ServerHello does not re-encode: %v", err)
			}
			if !bytes.Equal(re, opening[:len(re)]) {
				t.Fatalf("ServerHello re-encoding changed the opening\n got %x\nwant %x", re, opening[:len(re)])
			}
			sh2, err := ReadServerHello(bytes.NewReader(re))
			if err != nil || !reflect.DeepEqual(sh2, sh) {
				t.Fatalf("ServerHello round trip: %+v, %v; want %+v", sh2, err, sh)
			}
		}
	})
}

// FuzzReplyFrame runs arbitrary bytes through the client's reply reader:
// no panic, no allocation past the reply cap, and every accepted reply
// re-encodes to exactly its own bytes.
func FuzzReplyFrame(f *testing.F) {
	sh := ServerHello{MaxBatch: fuzzMaxBatch, Classes: 3}
	limit := replyCap(sh)
	must := mustFrame(f)
	for _, rep := range []Reply{
		{ID: 1, Results: []Result{{Label: 2, Scores: []float64{0.1, -0.5, 0.9}}, {Label: 0, Scores: []float64{1, 0, 0}}}},
		{ID: 2, Partials: [][]int64{{3, -4, 5}}, NormSq: []float64{2, 8, 1}},
		{ID: 3, Models: []ModelListing{{Name: "int", Version: 2, Dim: 8, Classes: 3, Encoding: 1, Levels: 10, Features: 12, Seed: 7, Default: true}}},
		{ID: 4},
		{GoAway: true},
		{ID: 5, Results: []Result{{Label: 1, Scores: []float64{0, 1, 0}}}, Timing: &StageTiming{QueueNs: 10, ScoreNs: 20, TotalNs: 40}},
	} {
		f.Add(must(appendReply(nil, &rep)))
	}
	for _, code := range wireCodes[1:] {
		f.Add(must(appendReply(nil, &Reply{ID: 6, Code: code, Detail: "refused"})))
	}
	valid := must(appendReply(nil, &Reply{ID: 1, Results: []Result{{Label: 1, Scores: []float64{0, 1, 0}}}}))
	f.Add(valid[:len(valid)-5]) // truncated
	f.Add(overCap(limit))       // over the cap

	f.Fuzz(func(t *testing.T, frame []byte) {
		var rep Reply
		var err error
		if n := allocDuring(func() { rep, err = ReadReply(bytes.NewReader(frame), sh) }); n > fuzzAllocBound(limit) {
			t.Fatalf("reply decode allocated %d bytes, bound %d", n, fuzzAllocBound(limit))
		}
		if err != nil {
			return
		}
		re, err := appendReply(nil, &rep)
		if err != nil {
			t.Fatalf("accepted reply does not re-encode: %v", err)
		}
		if !bytes.Equal(re, frame[:len(re)]) {
			t.Fatalf("re-encoding changed the reply\n got %x\nwant %x", re, frame[:len(re)])
		}
		back, err := ReadReply(bytes.NewReader(re), sh)
		if err != nil {
			t.Fatalf("re-encoded reply does not decode: %v", err)
		}
		if re2, _ := appendReply(nil, &back); !bytes.Equal(re2, re) {
			t.Fatalf("second round trip changed the reply")
		}
	})
}
