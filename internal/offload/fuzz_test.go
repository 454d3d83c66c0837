package offload

import (
	"testing"

	"privehd/internal/registry"
)

// fuzzMaxBatch is the batch limit of the fuzzed server, small so fuzzed
// batches cross it often.
const fuzzMaxBatch = 4

// fuzzServer returns a server (not listening; the fuzz calls answer
// directly) over two models: "int", an integer-valued model that can serve
// partial scores and is the default, and "noised", a non-integer one that
// must refuse them.
func fuzzServer(tb testing.TB) *Server {
	tb.Helper()
	reg := registry.New()
	if _, err := reg.Register("int", packedTestModel(3, 8), registry.EncoderInfo{}); err != nil {
		tb.Fatal(err)
	}
	noised := packedTestModel(3, 8)
	noised.Add(1, []float64{0.5, 0, 0, 0, 0, 0, 0, 0.25})
	if _, err := reg.Register("noised", noised, registry.EncoderInfo{}); err != nil {
		tb.Fatal(err)
	}
	s := NewRegistryServer(reg, WithMaxBatch(fuzzMaxBatch), WithWorkers(2))
	tb.Cleanup(func() { s.Close() })
	return s
}

// fuzzOps are the ops a fuzzed frame may carry, the last one unknown.
var fuzzOps = []string{OpClassify, OpPartialScores, OpPing, OpListModels, "frobnicate"}

// fuzzModels are the model names a fuzzed frame may be bound to, the last
// one unregistered.
var fuzzModels = []string{"int", "noised", "missing"}

// fuzzRequest decodes fuzz inputs into a frame. Each query's shape byte
// (shape rotated by the query index) picks its wire form: bit 0 a Vector
// instead of Packed, bit 1 both, bit 2 a wrong dimension, bit 3 neither
// field. Packed symbols and vector values cycle through symbols, so they
// may fall outside the −2…+1 alphabet.
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
			q = Query{Vector: vector, Packed: packed}
		case qs&1 != 0:
			q = Query{Vector: vector}
		default:
			q = Query{Packed: packed}
		}
		req.Queries = append(req.Queries, q)
	}
	return req
}

// FuzzAnswer is the contract of the server's single answer path: no frame,
// however malformed, panics it, and every accepted frame is answered in
// full — one result (or partial-score row) per query, each as wide as the
// model has classes.
func FuzzAnswer(f *testing.F) {
	valid := []byte{1, 0, 0xff, 0xfe}                                  // 1, 0, −1, −2
	f.Add(uint8(0), uint8(0), uint8(3), uint8(0), int64(0), valid)     // classify
	f.Add(uint8(1), uint8(0), uint8(3), uint8(0), int64(0), valid)     // partial scores
	f.Add(uint8(2), uint8(0), uint8(0), uint8(0), int64(0), valid)     // ping
	f.Add(uint8(3), uint8(0), uint8(0), uint8(0), int64(0), valid)     // list models
	f.Add(uint8(4), uint8(0), uint8(1), uint8(0), int64(0), valid)     // codeBadOp
	f.Add(uint8(0), uint8(0), uint8(6), uint8(0), int64(0), valid)     // codeBatch
	f.Add(uint8(0), uint8(0), uint8(2), uint8(0), int64(0), []byte{5}) // codeSymbol
	f.Add(uint8(0), uint8(0), uint8(1), uint8(4), int64(0), valid)     // codeDim
	f.Add(uint8(0), uint8(0), uint8(1), uint8(8), int64(0), valid)     // codeDim, empty query
	f.Add(uint8(1), uint8(0), uint8(1), uint8(1), int64(0), valid)     // codePartial: Vector query
	f.Add(uint8(1), uint8(1), uint8(1), uint8(0), int64(0), valid)     // codePartial: noised model
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
				t.Fatalf("op %q refused with unknown code %q (%s)", req.Op, reply.Code, reply.Detail)
			}
			if len(reply.Results) != 0 || len(reply.Partials) != 0 {
				t.Fatalf("refusal %q carries %d results and %d partial rows", reply.Code, len(reply.Results), len(reply.Partials))
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
		case OpListModels:
			if len(reply.Models) != len(fuzzModels)-1 {
				t.Fatalf("listing has %d models, want %d", len(reply.Models), len(fuzzModels)-1)
			}
		case OpPing:
			if len(reply.Results) != 0 || len(reply.Partials) != 0 || len(reply.Models) != 0 {
				t.Fatalf("ping answered with a payload: %+v", reply)
			}
		default:
			t.Fatalf("unknown op %q was not refused", req.Op)
		}
	})
}
