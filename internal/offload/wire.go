package offload

// The v6 wire codec: every byte the protocol puts on a connection is
// written and parsed here, by the Client, the Server, the Wiretap and any
// test peer alike.
//
// A connection opens with the 4-byte header "PHD"+version from each side
// (client first), and every message after it is one frame:
//
//	frame := len:u32 | body            (len bytes of body, little-endian)
//
//	Hello       := dim:u32 | classes:u32 | model:str
//	ServerHello := code:u8 | detail:str | dim:u32 | classes:u32 | maxBatch:u32 |
//	               minSymbol:i8 | maxSymbol:i8 | model:str | modelVersion:u32 |
//	               encoding:u32 | levels:u32 | features:u32 | seed:u64 |
//	               hasShard:u8 [| dimOffset dimLen classOffset classCount fullDim fullClasses :u32]
//	Request     := id:u64 | op:u8 | flags:u8 [| trace:u64] [| budgetNs:i64] | count:u32 | query*
//	query       := kind:u8 | dim:u32 | payload
//	               packed: lo plane | hi plane, ⌈dim/8⌉ bytes each
//	               vector: dim × f64
//	Reply       := id:u64 | code:u8 | flags:u8 [| detail:str] [| results] [| models]
//	               [| timing] [| partials] [| normSq]
//	str         := len:u32 | bytes
//
// A packed symbol s ∈ [−2, 1] is its 2-bit two's complement: bit i%8 of
// plane byte i/8 holds symbol i's low bit in the lo plane and its high bit
// in the hi plane, so a D-dimensional query costs D/4 bytes. These are the
// little-endian bytes of the query's intscore.Planes words, so encoding
// and decoding a packed query copies words, shifted when a shard slice
// starts off a word boundary. Optional fields (trace ID, budget, and every
// reply section) are present exactly when their flag bit is set, and each
// decoder is strict — no unknown flag bits, no empty flagged section, no
// stray padding bits, no trailing bytes — so re-encoding any accepted
// frame reproduces its bytes exactly.
//
// Every reader checks a frame's length prefix against a cap before it
// allocates: handshakeFrameCap for the handshake, requestCap for request
// frames (from the connection's model geometry and batch limit), replyCap
// for replies (from the ServerHello). Bodies are read in growing chunks, so
// a peer that declares a large frame and then stalls costs memory only for
// the bytes it actually sent.

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"sync"

	"privehd/internal/intscore"
	"privehd/internal/registry"
)

// handshakeFrameCap bounds Hello and ServerHello frames, and is the slack
// a reply frame gets for its detail string and model listing.
const handshakeFrameCap = 64 << 10

// maxFrameLen is the largest body a length prefix can declare that an int
// can hold: the u32 prefix's whole range, less on 32-bit platforms.
const maxFrameLen = min(math.MaxUint32, math.MaxInt)

const (
	// requestHeaderMax is the longest fixed request header: ID, op,
	// flags, trace ID, budget and query count.
	requestHeaderMax = 8 + 1 + 1 + 8 + 8 + 4
	// queryHeaderLen is each query's kind byte and dimension.
	queryHeaderLen = 1 + 4
	// readChunk is the first allocation step of a frame body; larger
	// bodies grow by doubling as their bytes arrive.
	readChunk = 64 << 10
)

// Query kinds on the wire.
const (
	kindPacked byte = iota
	kindVector
)

// Request flag bits.
const (
	reqTraced byte = 1 << iota
	reqBudget
)

// Reply flag bits, one per optional section, in body order after GoAway.
const (
	replyGoAway byte = 1 << iota
	replyDetail
	replyResults
	replyModels
	replyTiming
	replyPartials
	replyNormSq
)

// errMalformed reports a frame that does not parse.
var errMalformed = errors.New("offload: malformed frame")

// errFrameTooLarge reports a length prefix over the reader's cap. The
// frame's body is still unread.
type errFrameTooLarge struct {
	n     uint64
	limit int
}

func (e *errFrameTooLarge) Error() string {
	return fmt.Sprintf("offload: frame of %d bytes exceeds the %d-byte cap", e.n, e.limit)
}

// wireCodes lists every failure code in its byte-enum order; index 0 is
// success.
var wireCodes = [...]string{
	"", codeBadMagic, codeVersion, codeGeometry, codeBatch, codeDim, codeSymbol,
	codeUnknownModel, codeBadOp, codeOverloaded, codePartial, codeDeadline, codeFrame,
}

// codeByte maps a failure code to its wire byte.
func codeByte(code string) (byte, error) {
	for i, c := range wireCodes {
		if c == code {
			return byte(i), nil
		}
	}
	return 0, fmt.Errorf("offload: no wire byte for reply code %q", code)
}

// requestCap is the largest request frame a connection serving a dim-wide
// model with the given batch limit accepts: the longest header plus a full
// batch of full-precision queries.
func requestCap(dim, maxBatch int) int {
	return clampLen(requestHeaderMax + uint64(maxBatch)*(queryHeaderLen+8*uint64(dim)))
}

// replyCap is the largest reply frame a client accepts from the server
// that sent sh: a full batch of results (or partial-score rows) as wide as
// the model has classes, its class norms, plus the handshake cap as slack
// for the detail string, the timing block and a model listing.
func replyCap(sh ServerHello) int {
	return clampLen(handshakeFrameCap + (uint64(uint32(sh.MaxBatch))+1)*(8+8*uint64(uint32(sh.Classes))))
}

func clampLen(n uint64) int {
	if n > maxFrameLen {
		return maxFrameLen
	}
	return int(n)
}

// header returns the 4-byte connection opening for a version.
func header(version byte) [4]byte { return [4]byte{magic[0], magic[1], magic[2], version} }

// readHeader reads a connection opening and returns its version byte; a
// peer not opening with the magic gets ErrBadMagic.
func readHeader(r io.Reader) (byte, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return 0, err
	}
	if hdr[0] != magic[0] || hdr[1] != magic[1] || hdr[2] != magic[2] {
		return 0, fmt.Errorf("%w: opened with %q", ErrBadMagic, hdr[:])
	}
	return hdr[3], nil
}

// readFrame reads one frame body into buf (grown as needed) and returns
// it. A length prefix over limit returns *errFrameTooLarge with the body
// unread; a short body returns io.ErrUnexpectedEOF.
func readFrame(r io.Reader, buf []byte, limit int) ([]byte, error) {
	var pre [4]byte
	if _, err := io.ReadFull(r, pre[:]); err != nil {
		return buf, err
	}
	n64 := uint64(binary.LittleEndian.Uint32(pre[:]))
	if n64 > uint64(limit) {
		return buf, &errFrameTooLarge{n: n64, limit: limit}
	}
	n := int(n64)
	if n <= cap(buf) {
		buf = buf[:n]
		_, err := io.ReadFull(r, buf)
		return buf, noEOF(err)
	}
	// Grow with the bytes that actually arrive, never to a size the peer
	// merely declared.
	buf = buf[:0]
	for len(buf) < n {
		step := max(len(buf), readChunk)
		end := min(n, len(buf)+step)
		if end > cap(buf) {
			grown := make([]byte, len(buf), end)
			copy(grown, buf)
			buf = grown
		}
		if _, err := io.ReadFull(r, buf[len(buf):end]); err != nil {
			return buf, noEOF(err)
		}
		buf = buf[:end]
	}
	return buf, nil
}

// noEOF turns a clean EOF inside a frame body into the truncation it is.
func noEOF(err error) error {
	if err == io.EOF {
		return io.ErrUnexpectedEOF
	}
	return err
}

// beginFrame reserves a frame's length prefix; endFrame fills it in.
func beginFrame(b []byte) ([]byte, int) { return append(b, 0, 0, 0, 0), len(b) }

func endFrame(b []byte, at int) ([]byte, error) {
	n := len(b) - at - 4
	if n > maxFrameLen {
		return b, fmt.Errorf("offload: %d-byte frame exceeds the wire's length prefix", n)
	}
	binary.LittleEndian.PutUint32(b[at:], uint32(n))
	return b, nil
}

func appendU32(b []byte, v int) []byte { return binary.LittleEndian.AppendUint32(b, uint32(v)) }

func appendU64(b []byte, v uint64) []byte { return binary.LittleEndian.AppendUint64(b, v) }

func appendStr(b []byte, s string) []byte { return append(appendU32(b, len(s)), s...) }

func appendF64(b []byte, v float64) []byte { return appendU64(b, math.Float64bits(v)) }

// reader is a bounds-checked cursor over a frame body. The first short
// read sets err and every later read returns zero, so decoders check err
// once per section.
type reader struct {
	b   []byte
	err error
}

func (r *reader) take(n int) []byte {
	if r.err != nil {
		return nil
	}
	if n < 0 || n > len(r.b) {
		r.err = fmt.Errorf("%w: truncated", errMalformed)
		return nil
	}
	p := r.b[:n:n]
	r.b = r.b[n:]
	return p
}

func (r *reader) u8() byte {
	if p := r.take(1); p != nil {
		return p[0]
	}
	return 0
}

func (r *reader) u32() uint32 {
	if p := r.take(4); p != nil {
		return binary.LittleEndian.Uint32(p)
	}
	return 0
}

func (r *reader) int() int { return int(r.u32()) }

func (r *reader) u64() uint64 {
	if p := r.take(8); p != nil {
		return binary.LittleEndian.Uint64(p)
	}
	return 0
}

func (r *reader) f64() float64 { return math.Float64frombits(r.u64()) }

func (r *reader) str() string { return string(r.take(r.int())) }

// count reads a section's element count and checks that count elements of
// at least minSize bytes each fit in what is left, before anyone allocates
// for them.
func (r *reader) count(minSize int) int {
	n := uint64(r.u32())
	if r.err == nil && n*uint64(minSize) > uint64(len(r.b)) {
		r.err = fmt.Errorf("%w: %d elements cannot fit in %d bytes", errMalformed, n, len(r.b))
	}
	if r.err != nil {
		return 0
	}
	return int(n)
}

func (r *reader) fail(format string, args ...any) {
	if r.err == nil {
		r.err = fmt.Errorf("%w: "+format, append([]any{errMalformed}, args...)...)
	}
}

// done reports the decode verdict: any short read, or trailing bytes.
func (r *reader) done() error {
	if r.err == nil && len(r.b) != 0 {
		r.err = fmt.Errorf("%w: %d trailing bytes", errMalformed, len(r.b))
	}
	return r.err
}

// --- handshake ---

// appendHello appends the client opening: header, then the Hello frame.
func appendHello(b []byte, h Hello) []byte {
	hdr := header(ProtocolVersion)
	b = append(b, hdr[:]...)
	b, at := beginFrame(b)
	b = appendU32(b, h.Dim)
	b = appendU32(b, h.Classes)
	b = appendStr(b, h.Model)
	b, _ = endFrame(b, at) // bounded: a string over 4 GiB is not a model name
	return b
}

func decodeHello(body []byte) (Hello, error) {
	r := reader{b: body}
	h := Hello{Dim: r.int(), Classes: r.int(), Model: r.str()}
	return h, r.done()
}

// appendServerHello appends the server opening: a header carrying
// sh.Version, then the ServerHello frame.
func appendServerHello(b []byte, sh ServerHello) ([]byte, error) {
	code, err := codeByte(sh.Code)
	if err != nil {
		return b, err
	}
	hdr := header(sh.Version)
	b = append(b, hdr[:]...)
	b, at := beginFrame(b)
	b = append(b, code)
	b = appendStr(b, sh.Detail)
	b = appendU32(b, sh.Dim)
	b = appendU32(b, sh.Classes)
	b = appendU32(b, sh.MaxBatch)
	b = append(b, byte(sh.MinSymbol), byte(sh.MaxSymbol))
	b = appendStr(b, sh.Model)
	b = appendU32(b, sh.ModelVersion)
	b = appendU32(b, sh.Encoding)
	b = appendU32(b, sh.Levels)
	b = appendU32(b, sh.Features)
	b = appendU64(b, sh.Seed)
	if s := sh.Shard; s != nil {
		b = append(b, 1)
		for _, v := range [...]int{s.DimOffset, s.DimLen, s.ClassOffset, s.ClassCount, s.FullDim, s.FullClasses} {
			b = appendU32(b, v)
		}
	} else {
		b = append(b, 0)
	}
	return endFrame(b, at)
}

func decodeServerHello(version byte, body []byte) (ServerHello, error) {
	r := reader{b: body}
	sh := ServerHello{Version: version}
	sh.Code = decodeCode(&r)
	sh.Detail = r.str()
	sh.Dim, sh.Classes, sh.MaxBatch = r.int(), r.int(), r.int()
	sh.MinSymbol, sh.MaxSymbol = int8(r.u8()), int8(r.u8())
	sh.Model = r.str()
	sh.ModelVersion, sh.Encoding, sh.Levels, sh.Features = r.int(), r.int(), r.int(), r.int()
	sh.Seed = r.u64()
	switch r.u8() {
	case 0:
	case 1:
		sh.Shard = &registry.ShardInfo{
			DimOffset: r.int(), DimLen: r.int(), ClassOffset: r.int(),
			ClassCount: r.int(), FullDim: r.int(), FullClasses: r.int(),
		}
	default:
		r.fail("shard presence byte")
	}
	return sh, r.done()
}

func decodeCode(r *reader) string {
	c := r.u8()
	if int(c) >= len(wireCodes) {
		r.fail("reply code %d", c)
		return ""
	}
	return wireCodes[c]
}

// WriteHello opens a connection as a client: the protocol header, then
// the Hello frame, in one write.
func WriteHello(w io.Writer, h Hello) error {
	_, err := w.Write(appendHello(nil, h))
	return err
}

// ReadHello reads a client's opening as a server does: the header, then
// the Hello frame. A peer not opening with the magic gets ErrBadMagic, one
// opening with another version ErrVersionMismatch — both before any of its
// frame is read.
func ReadHello(r io.Reader) (Hello, error) {
	v, err := readHeader(r)
	if err != nil {
		return Hello{}, err
	}
	if v != ProtocolVersion {
		return Hello{}, fmt.Errorf("%w: client sent v%d", ErrVersionMismatch, v)
	}
	return readHelloFrame(r)
}

func readHelloFrame(r io.Reader) (Hello, error) {
	body, err := readFrame(r, nil, handshakeFrameCap)
	if err != nil {
		return Hello{}, err
	}
	return decodeHello(body)
}

// WriteServerHello answers a client's opening: a header carrying
// sh.Version, then the ServerHello frame.
func WriteServerHello(w io.Writer, sh ServerHello) error {
	b, err := appendServerHello(nil, sh)
	if err != nil {
		return err
	}
	_, err = w.Write(b)
	return err
}

// ReadServerHello reads a server's opening as a client does. A server
// whose answer does not start with this version's header — an older gob
// server, a newer version, or no privehd server at all — gets
// ErrVersionMismatch.
func ReadServerHello(r io.Reader) (ServerHello, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return ServerHello{}, err
	}
	if hdr != header(ProtocolVersion) {
		return ServerHello{}, fmt.Errorf("%w: server answered %q, want a v%d header",
			ErrVersionMismatch, hdr[:], ProtocolVersion)
	}
	body, err := readFrame(r, nil, handshakeFrameCap)
	if err != nil {
		return ServerHello{}, err
	}
	return decodeServerHello(hdr[3], body)
}

// --- requests ---

// planeLen is the byte length of one bit-plane of a dim-symbol query.
func planeLen(dim int) int { return (dim + 7) / 8 }

// appendRequest appends req as one frame. A packed query whose planes are
// too short for its dimensions cannot be encoded and fails before
// anything is sent.
func appendRequest(b []byte, req *Request) ([]byte, error) {
	b, at := beginFrame(b)
	b = appendU64(b, req.ID)
	var flags byte
	if req.Trace != 0 {
		flags |= reqTraced
	}
	if req.BudgetNs != 0 {
		flags |= reqBudget
	}
	b = append(b, byte(req.Op), flags)
	if req.Trace != 0 {
		b = appendU64(b, req.Trace)
	}
	if req.BudgetNs != 0 {
		b = appendU64(b, uint64(req.BudgetNs))
	}
	b = appendU32(b, len(req.Queries))
	for i, q := range req.Queries {
		// Vector wins when both fields are (ab)used, as on the server.
		if q.Vector != nil {
			b = append(b, kindVector)
			b = appendU32(b, len(q.Vector))
			for _, v := range q.Vector {
				b = appendF64(b, v)
			}
			continue
		}
		p := q.Packed
		words := len(p.Bits) / 2
		if len(p.Bits)%2 != 0 || p.Dim < 0 || q.off+p.Dim > 64*words {
			return b[:at], fmt.Errorf("offload: query %d: %d plane words cannot hold dimensions [%d,%d)",
				i, len(p.Bits), q.off, q.off+p.Dim)
		}
		b = append(b, kindPacked)
		b = appendU32(b, p.Dim)
		b = appendPlane(b, p.Bits[:words], q.off, p.Dim)
		b = appendPlane(b, p.Bits[words:], q.off, p.Dim)
	}
	return endFrame(b, at)
}

// appendPlane appends bits [off, off+n) of plane as ⌈n/8⌉ little-endian
// bytes, bit j of byte k holding plane bit off+8k+j; the padding bits of
// the last byte are clear.
func appendPlane(b []byte, plane []uint64, off, n int) []byte {
	plane, s := plane[off/64:], uint(off%64)
	for k := 0; k < n; k += 64 {
		w := plane[k/64] >> s
		if s != 0 && k/64+1 < len(plane) {
			w |= plane[k/64+1] << (64 - s)
		}
		if left := n - k; left < 64 {
			w &= 1<<left - 1
		}
		end := len(b) + min(8, planeLen(n-k))
		b = binary.LittleEndian.AppendUint64(b, w)[:end]
	}
	return b
}

// readPlane copies the plane bytes src into the words of plane, which has
// room for them. It reports false if a padding bit past dim is set.
func readPlane(plane []uint64, src []byte, dim int) bool {
	for w := range plane {
		var word [8]byte
		copy(word[:], src[8*w:])
		plane[w] = binary.LittleEndian.Uint64(word[:])
	}
	r := dim % 8
	return r == 0 || src[len(src)-1]>>r == 0
}

// frameBufs is the pooled storage a decoded request's queries live in:
// the query headers, every packed query's plane words and every vector
// value of one frame. The Request aliases it until release.
type frameBufs struct {
	queries []Query
	words   []uint64
	floats  []float64
}

var framePool = sync.Pool{New: func() any { return new(frameBufs) }}

// release returns fb to the pool; the Request decoded into it must no
// longer be used.
func (fb *frameBufs) release() { framePool.Put(fb) }

// emptyVector is the decoded form of a zero-length vector query: non-nil,
// so it stays a vector query and re-encodes as one.
var emptyVector = []float64{}

// decodeRequest parses a request body into fb's pooled storage.
func decodeRequest(body []byte, fb *frameBufs) (Request, error) {
	r := reader{b: body}
	var req Request
	req.ID = r.u64()
	req.Op = Op(r.u8())
	flags := r.u8()
	if flags&^(reqTraced|reqBudget) != 0 {
		r.fail("request flags %#x", flags)
	}
	if flags&reqTraced != 0 {
		if req.Trace = r.u64(); req.Trace == 0 {
			r.fail("flagged trace ID is zero")
		}
	}
	if flags&reqBudget != 0 {
		if req.BudgetNs = int64(r.u64()); req.BudgetNs == 0 {
			r.fail("flagged budget is zero")
		}
	}
	n := r.count(queryHeaderLen)
	if r.err != nil {
		return Request{}, r.err
	}
	// First pass: validate every query's extent and size the slabs, so
	// nothing is allocated for bytes the frame does not hold.
	scan := r
	words, floats := 0, 0
	for i := 0; i < n && scan.err == nil; i++ {
		kind, dim := scan.u8(), uint64(scan.u32())
		switch kind {
		case kindPacked:
			scan.take(payloadLen(2*((dim+7)/8), len(scan.b)))
			words += 2 * intscore.Words(int(dim))
		case kindVector:
			scan.take(payloadLen(8*dim, len(scan.b)))
			floats += int(dim)
		default:
			scan.fail("query %d kind %d", i, kind)
		}
	}
	if err := scan.done(); err != nil {
		return Request{}, err
	}
	if n == 0 {
		return req, nil
	}
	fb.queries = grow(fb.queries, n)
	fb.words = grow(fb.words, words)
	fb.floats = grow(fb.floats, floats)
	req.Queries = fb.queries
	packed, vals := fb.words, fb.floats
	for i := range req.Queries {
		kind, dim := r.u8(), r.int()
		if kind == kindPacked {
			var q intscore.Planes
			if dim > 0 {
				w, p := intscore.Words(dim), planeLen(dim)
				q = intscore.Planes{Dim: dim, Bits: packed[: 2*w : 2*w]}
				packed = packed[2*w:]
				planes := r.take(2 * p)
				if !readPlane(q.Lo(), planes[:p], dim) || !readPlane(q.Hi(), planes[p:], dim) {
					return Request{}, fmt.Errorf("%w: query %d sets padding bits", errMalformed, i)
				}
			}
			req.Queries[i] = Query{Packed: q}
			continue
		}
		v := emptyVector
		if dim > 0 {
			v = vals[:dim:dim]
			vals = vals[dim:]
			for k := range v {
				v[k] = r.f64()
			}
		}
		req.Queries[i] = Query{Vector: v}
	}
	return req, nil
}

// payloadLen converts a payload size to a take length, forcing a
// truncation verdict for sizes that cannot fit instead of overflowing.
func payloadLen(n uint64, left int) int {
	if n > uint64(left) {
		return -1
	}
	return int(n)
}

// grow returns s resized to n, reallocating only when n exceeds its
// capacity.
func grow[T any](s []T, n int) []T {
	if n > cap(s) {
		return make([]T, n)
	}
	return s[:n]
}

// WriteRequest writes req as one frame. A malformed packed query fails and
// nothing is written.
func WriteRequest(w io.Writer, req Request) error {
	b, err := appendRequest(nil, &req)
	if err != nil {
		return err
	}
	_, err = w.Write(b)
	return err
}

// --- replies ---

// appendReply appends rep as one frame.
func appendReply(b []byte, rep *Reply) ([]byte, error) {
	code, err := codeByte(rep.Code)
	if err != nil {
		return b, err
	}
	b, at := beginFrame(b)
	b = appendU64(b, rep.ID)
	var flags byte
	if rep.GoAway {
		flags |= replyGoAway
	}
	if rep.Detail != "" {
		flags |= replyDetail
	}
	if len(rep.Results) > 0 {
		flags |= replyResults
	}
	if len(rep.Models) > 0 {
		flags |= replyModels
	}
	if rep.Timing != nil {
		flags |= replyTiming
	}
	if len(rep.Partials) > 0 {
		flags |= replyPartials
	}
	if len(rep.NormSq) > 0 {
		flags |= replyNormSq
	}
	b = append(b, code, flags)
	if rep.Detail != "" {
		b = appendStr(b, rep.Detail)
	}
	if len(rep.Results) > 0 {
		// Every result of a frame is as wide as the model has classes.
		width := len(rep.Results[0].Scores)
		b = appendU32(b, len(rep.Results))
		b = appendU32(b, width)
		for _, res := range rep.Results {
			if len(res.Scores) != width {
				return b[:at], fmt.Errorf("offload: reply results of uneven width %d and %d", width, len(res.Scores))
			}
			b = appendU32(b, res.Label)
			for _, s := range res.Scores {
				b = appendF64(b, s)
			}
		}
	}
	if len(rep.Models) > 0 {
		b = appendU32(b, len(rep.Models))
		for _, m := range rep.Models {
			b = appendStr(b, m.Name)
			b = appendU32(b, m.Version)
			b = appendU32(b, m.Dim)
			b = appendU32(b, m.Classes)
			b = appendU32(b, m.Encoding)
			b = appendU32(b, m.Levels)
			b = appendU32(b, m.Features)
			b = appendU64(b, m.Seed)
			if m.Default {
				b = append(b, 1)
			} else {
				b = append(b, 0)
			}
		}
	}
	if t := rep.Timing; t != nil {
		b = appendU64(b, uint64(t.QueueNs))
		b = appendU64(b, uint64(t.ScoreNs))
		b = appendU64(b, uint64(t.TotalNs))
	}
	if len(rep.Partials) > 0 {
		// Partial-score rows are as wide as the served slice has classes,
		// which is never zero.
		width := len(rep.Partials[0])
		b = appendU32(b, len(rep.Partials))
		b = appendU32(b, width)
		for _, row := range rep.Partials {
			if len(row) != width || width == 0 {
				return b[:at], fmt.Errorf("offload: partial-score rows of uneven width %d and %d", width, len(row))
			}
			for _, v := range row {
				b = appendU64(b, uint64(v))
			}
		}
	}
	if len(rep.NormSq) > 0 {
		b = appendU32(b, len(rep.NormSq))
		for _, v := range rep.NormSq {
			b = appendF64(b, v)
		}
	}
	return endFrame(b, at)
}

// modelListingMin is the smallest encoded ModelListing: an empty name,
// six u32 fields, the seed and the default byte.
const modelListingMin = 4 + 6*4 + 8 + 1

// decodeReply parses a reply body. Everything it returns is freshly
// allocated: replies escape to callers.
func decodeReply(body []byte) (Reply, error) {
	r := reader{b: body}
	var rep Reply
	rep.ID = r.u64()
	rep.Code = decodeCode(&r)
	flags := r.u8()
	if flags >= replyNormSq<<1 {
		r.fail("reply flags %#x", flags)
	}
	rep.GoAway = flags&replyGoAway != 0
	if flags&replyDetail != 0 {
		if rep.Detail = r.str(); rep.Detail == "" {
			r.fail("flagged detail is empty")
		}
	}
	if flags&replyResults != 0 {
		n := r.count(4)
		width := r.int()
		left := uint64(len(r.b))
		if n == 0 || uint64(width) > left/8 || uint64(n)*(4+8*uint64(width)) > left {
			r.fail("%d results of width %d", n, width)
		} else {
			rep.Results = make([]Result, n)
			var scores []float64
			if width > 0 {
				scores = make([]float64, n*width)
			}
			for i := range rep.Results {
				rep.Results[i].Label = r.int()
				if width > 0 {
					s := scores[i*width : (i+1)*width : (i+1)*width]
					for k := range s {
						s[k] = r.f64()
					}
					rep.Results[i].Scores = s
				}
			}
		}
	}
	if flags&replyModels != 0 {
		n := r.count(modelListingMin)
		if n == 0 {
			r.fail("empty model listing")
		} else {
			rep.Models = make([]ModelListing, n)
			for i := range rep.Models {
				m := &rep.Models[i]
				m.Name = r.str()
				m.Version, m.Dim, m.Classes = r.int(), r.int(), r.int()
				m.Encoding, m.Levels, m.Features = r.int(), r.int(), r.int()
				m.Seed = r.u64()
				switch r.u8() {
				case 0:
				case 1:
					m.Default = true
				default:
					r.fail("model listing default byte")
				}
			}
		}
	}
	if flags&replyTiming != 0 {
		rep.Timing = &StageTiming{QueueNs: int64(r.u64()), ScoreNs: int64(r.u64()), TotalNs: int64(r.u64())}
	}
	if flags&replyPartials != 0 {
		n := r.count(8)
		width := r.int()
		left := uint64(len(r.b))
		if n == 0 || width == 0 || uint64(width) > left/8 || uint64(n)*uint64(width) > left/8 {
			r.fail("%d partial rows of width %d", n, width)
		} else {
			rep.Partials = make([][]int64, n)
			vals := make([]int64, n*width)
			for i := range rep.Partials {
				row := vals[i*width : (i+1)*width : (i+1)*width]
				for k := range row {
					row[k] = int64(r.u64())
				}
				rep.Partials[i] = row
			}
		}
	}
	if flags&replyNormSq != 0 {
		n := r.count(8)
		if n == 0 {
			r.fail("empty class norms")
		} else {
			rep.NormSq = make([]float64, n)
			for i := range rep.NormSq {
				rep.NormSq[i] = r.f64()
			}
		}
	}
	if err := r.done(); err != nil {
		return Reply{}, err
	}
	return rep, nil
}

// ReadReply reads one reply frame from the server that answered the
// handshake with sh, refusing a length prefix over the reply cap that
// handshake implies before allocating for it.
func ReadReply(r io.Reader, sh ServerHello) (Reply, error) {
	body, err := readFrame(r, nil, replyCap(sh))
	if err != nil {
		return Reply{}, err
	}
	return decodeReply(body)
}

// bufPool recycles frame encode buffers.
var bufPool = sync.Pool{New: func() any { return new([]byte) }}
