package serve_test

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/http/httptest"
	"slices"
	"strconv"
	"testing"

	"rangeagg/internal/cluster"
	"rangeagg/internal/serve"
)

// FuzzBatchWire is the batch codec's differential against encoding/json,
// the reference behaviour:
//   - for arbitrary bytes, ReadJSON (scanner or fallback) decodes a
//     BatchRequest to what json.Decoder decodes, value and error text
//     alike, and a body the scanner accepts is one json.Decoder accepts;
//   - for values built from the same bytes, every append encoder writes
//     the bytes encoding/json writes, through MarshalJSON and WriteJSON,
//     and fails where encoding/json fails;
//   - a node's BatchAnswer built from them fails to encode in binary
//     exactly where its JSON fails, and otherwise decodes from binary to
//     what its JSON decodes to, bit for bit;
//   - the same bytes given to the binary decoder either fail or decode
//     to an answer that re-encodes to them, and never panic.
func FuzzBatchWire(f *testing.F) {
	for _, seed := range []string{
		// perfbench's request shapes (ranges first, maxerr last) and the
		// answers nodes and the router write.
		`{"ranges":[[12,40017],[0,65535],[7,7]],"maxerr":1000}`,
		`{"ranges":[[1,2],[3,400]],"maxerr":32}`,
		`{"maxerr":0.5,"metric":"SUM","ranges":[[0,9],[-3,2]],"synopsis":"fine"}`,
		`{"errs":[0,1.5,null],"values":[10,2.5,-0],"version":7}` + "\n",
		`{"errs":[null,12.25],"partial":true,"served":[false,true],"values":[0,3],"versions":{"n1":4},` +
			`"windows":[{"range":[0,31],"node":"n0","status":"failed","attempts":2,"err":"x"}]}` + "\n",
		`{"errs":null,"values":null,"version":0}`,
		`{"errs":[],"values":[5,6],"version":1}`,
		`{"ranges":[[1,2]`,
		`{"ranges":null}`, `{}`, ``, " \n", `{"RANGES":[[1,2]]}`, `{"ranges":[[1,2]],"ranges":[[3,4]]}`,
		`{"ranges":[[1.5,2]]}`, `{"ranges":[[1,2,3]]}`, `{"ranges":[[1]]}`, `{"values":[1e400],"version":1}`,
		`{"version":12345678901234567890}`, `{"synopsis":"a\u0062"}`, `{"maxerr":null}`, `{"ranges":[]} trailing`,
	} {
		f.Add([]byte(seed))
	}
	negZero := math.Copysign(0, -1)
	for _, ans := range []serve.BatchAnswer{
		{Errs: []*float64{nil, &negZero, new(float64)}, Values: []float64{negZero, 5e-324, 1e21}, Version: 7},
		{Errs: []*float64{}, Values: []float64{}, Version: -1},
	} {
		bin, _ := ans.AppendBinary(nil)
		f.Add(bin)
		f.Add(bin[:len(bin)-1])
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		checkDecode(t, data, serve.ScanBatchRequest, sameRequest)
		g := &gen{data: data}
		checkEncode(t, g.request())
		ans := g.answer()
		checkEncode(t, ans)
		if _, ok := ans.AppendBinary(nil); ok && len(ans.Errs) != len(ans.Values) {
			t.Fatalf("AppendBinary encoded %d errs for %d values", len(ans.Errs), len(ans.Values))
		}
		checkEncode(t, g.result())
		checkBinary(t, (&gen{data: data}).nodeAnswer())
		if ans, err := serve.DecodeBatchAnswer(data); err == nil {
			if bin, ok := ans.AppendBinary(nil); !ok || !bytes.Equal(bin, data) {
				t.Fatalf("binary %x decoded to %+v, which re-encodes to %x, %v", data, ans, bin, ok)
			}
		}
	})
}

// checkBinary checks a node's answer's binary encoding against its JSON:
// AppendBinary fails exactly where AppendJSON fails, and otherwise the
// binary decodes to what the JSON decodes to, bit for bit.
func checkBinary(t *testing.T, ans serve.BatchAnswer) {
	t.Helper()
	bin, binOK := ans.AppendBinary(nil)
	js, jsonOK := ans.AppendJSON(nil)
	if binOK != jsonOK {
		t.Fatalf("%+v: AppendBinary ok=%v, AppendJSON ok=%v", ans, binOK, jsonOK)
	}
	if !binOK {
		return
	}
	var want serve.BatchAnswer
	if err := json.Unmarshal(js, &want); err != nil {
		t.Fatal(err)
	}
	if got, err := serve.DecodeBatchAnswer(bin); err != nil || !sameAnswer(got, want) {
		t.Fatalf("binary %x decoded to %+v, %v; its JSON %s to %+v", bin, got, err, js, want)
	}
}

func checkDecode[T any](t *testing.T, data []byte, scan func([]byte) (T, bool), same func(a, b T) bool) {
	t.Helper()
	var want T
	wantErr := json.NewDecoder(bytes.NewReader(data)).Decode(&want)
	if got, ok := scan(data); ok && (wantErr != nil || !same(got, want)) {
		t.Fatalf("%T: scanner accepted %q as %+v; json.Decoder: %+v, %v", want, data, got, want, wantErr)
	}
	var got T
	gotErr := serve.ReadJSON(bytes.NewReader(data), &got)
	if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) || !same(got, want) {
		t.Fatalf("%T from %q:\n got %+v, %v\nwant %+v, %v", want, data, got, gotErr, want, wantErr)
	}
}

func checkEncode(t *testing.T, v any) {
	t.Helper()
	got, gotErr := serve.MarshalJSON(v)
	want, wantErr := json.Marshal(v)
	if !bytes.Equal(got, want) || fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
		t.Fatalf("MarshalJSON(%T):\n got %s, %v\nwant %s, %v", v, got, gotErr, want, wantErr)
	}
	rec := httptest.NewRecorder()
	serve.WriteJSON(rec, 200, v)
	var ref bytes.Buffer
	_ = json.NewEncoder(&ref).Encode(v)
	if !bytes.Equal(rec.Body.Bytes(), ref.Bytes()) {
		t.Fatalf("WriteJSON(%T):\n got %s\nwant %s", v, rec.Body.Bytes(), ref.Bytes())
	}
}

func sameFloat(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

func sameOpt(a, b *float64) bool {
	return (a == nil) == (b == nil) && (a == nil || sameFloat(*a, *b))
}

func sameRequest(a, b serve.BatchRequest) bool {
	return sameOpt(a.MaxErr, b.MaxErr) && a.Metric == b.Metric && a.Synopsis == b.Synopsis &&
		(a.Ranges == nil) == (b.Ranges == nil) && slices.Equal(a.Ranges, b.Ranges)
}

func sameAnswer(a, b serve.BatchAnswer) bool {
	return a.Version == b.Version && (a.Values == nil) == (b.Values == nil) && slices.EqualFunc(a.Values, b.Values, sameFloat) &&
		(a.Errs == nil) == (b.Errs == nil) && slices.EqualFunc(a.Errs, b.Errs, sameOpt)
}

// gen builds encoder inputs from fuzz bytes: the float edge cases
// encoding/json formats differently (±0, subnormals, the 1e-6 and 1e21
// exponent cutoffs, NaN and ±Inf from raw bits), nil and empty slices,
// nil errs entries, and strings of raw bytes.
type gen struct{ data []byte }

func (g *gen) byte() byte {
	if len(g.data) == 0 {
		return 0
	}
	b := g.data[0]
	g.data = g.data[1:]
	return b
}

func (g *gen) uint64() uint64 {
	var buf [8]byte
	n := copy(buf[:], g.data)
	g.data = g.data[n:]
	return binary.LittleEndian.Uint64(buf[:])
}

func (g *gen) float() float64 {
	edges := [...]float64{0, math.Copysign(0, -1), 5e-324, 1e-7, 1e-6, 9.999999e-7, 1e21, 1e20, 1e300, -1e21, 0.1, 12.25}
	if i := int(g.byte()); i < len(edges) {
		return edges[i]
	} else if i < 128 {
		return float64(int64(g.uint64())) / float64(i)
	}
	return math.Float64frombits(g.uint64())
}

func (g *gen) optFloat() *float64 {
	if g.byte()%3 == 0 {
		return nil
	}
	f := g.float()
	return &f
}

func (g *gen) length() int {
	switch n := int(g.byte() % 8); n {
	case 0:
		return -1 // nil
	default:
		return n - 1
	}
}

func (g *gen) str() string {
	return string(g.take(int(g.byte() % 12)))
}

func (g *gen) take(n int) []byte {
	n = min(n, len(g.data))
	out := g.data[:n]
	g.data = g.data[n:]
	return out
}

func (g *gen) floats() []float64 {
	n := g.length()
	if n < 0 {
		return nil
	}
	out := make([]float64, n)
	for i := range out {
		out[i] = g.float()
	}
	return out
}

func (g *gen) bounds() []*float64 {
	n := g.length()
	if n < 0 {
		return nil
	}
	out := make([]*float64, n)
	for i := range out {
		out[i] = g.optFloat()
	}
	return out
}

func (g *gen) request() serve.BatchRequest {
	req := serve.BatchRequest{MaxErr: g.optFloat(), Metric: g.str(), Synopsis: g.str()}
	if n := g.length(); n >= 0 {
		req.Ranges = make([][2]int, n)
		for i := range req.Ranges {
			req.Ranges[i] = [2]int{int(g.uint64()), int(int8(g.byte()))}
		}
	}
	return req
}

func (g *gen) answer() serve.BatchAnswer {
	return serve.BatchAnswer{Errs: g.bounds(), Values: g.floats(), Version: int64(g.uint64())}
}

// nodeAnswer is an answer shaped as a node writes it: one bound per
// value.
func (g *gen) nodeAnswer() serve.BatchAnswer {
	n := max(g.length(), 0)
	ans := serve.BatchAnswer{Errs: make([]*float64, n), Values: make([]float64, n), Version: int64(g.uint64())}
	for i := range ans.Values {
		ans.Values[i], ans.Errs[i] = g.float(), g.optFloat()
	}
	return ans
}

func (g *gen) result() cluster.BatchResult {
	res := cluster.BatchResult{Errs: g.bounds(), Partial: g.byte()%2 == 0, Values: g.floats()}
	if n := g.length(); n >= 0 {
		res.Served = make([]bool, n)
		for i := range res.Served {
			res.Served[i] = g.byte()%2 == 0
		}
	}
	if n := g.length(); n >= 0 {
		res.Versions = make(map[string]int64, n)
		for i := 0; i < n; i++ {
			res.Versions[g.str()] = int64(g.uint64())
		}
	}
	if n := g.length(); n >= 0 {
		res.Windows = make([]cluster.WindowReport, n)
		for i := range res.Windows {
			res.Windows[i] = cluster.WindowReport{
				Window: cluster.Window{Lo: int(int16(g.uint64())), Hi: int(g.uint64())},
				Node:   g.str(), Endpoint: g.str(), Status: g.str(), Replica: g.byte()%2 == 0,
				Attempts: int(int8(g.byte())), Path: g.str(), Err: g.str(),
			}
		}
	}
	return res
}

// TestBatchCodecScansCanonical checks that the scanner, not the
// fallback, decodes what the encoders write and what perfbench sends:
// every such body must scan, and to the encoded value. Answers are
// checked against their binary encoding, which must carry them whole.
func TestBatchCodecScansCanonical(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	float := func() float64 {
		edges := []float64{0, math.Copysign(0, -1), 5e-324, 1e-7, 1e21, 1e300, 123456.789}
		if rng.Intn(2) == 0 {
			return edges[rng.Intn(len(edges))]
		}
		return (rng.Float64() - 0.5) * math.Pow(10, float64(rng.Intn(40)-20))
	}
	names := []string{"", "h", "fine", "SUM", "count"}
	for k := 0; k < 500; k++ {
		req := serve.BatchRequest{Metric: names[rng.Intn(len(names))], Synopsis: names[rng.Intn(len(names))]}
		if rng.Intn(2) == 0 {
			f := float()
			req.MaxErr = &f
		}
		if rng.Intn(6) > 0 {
			req.Ranges = make([][2]int, rng.Intn(300))
			for i := range req.Ranges {
				req.Ranges[i] = [2]int{rng.Intn(1<<20) - 1000, rng.Intn(1 << 20)}
			}
		}
		ans := serve.BatchAnswer{Version: rng.Int63()}
		if rng.Intn(6) > 0 {
			ans.Values = make([]float64, rng.Intn(300))
			ans.Errs = make([]*float64, len(ans.Values))
			for i := range ans.Values {
				ans.Values[i] = float()
				if rng.Intn(4) > 0 {
					f := float()
					ans.Errs[i] = &f
				}
			}
		}
		data, err := serve.MarshalJSON(req)
		if err != nil {
			t.Fatal(err)
		}
		if got, ok := serve.ScanBatchRequest(data); !ok || !sameRequest(got, req) {
			t.Fatalf("request %s scanned as %+v, %v", data, got, ok)
		}
		if ans.Values != nil {
			checkBinary(t, ans)
		}
	}
	// perfbench writes the budget after the ranges, with 'g' formatting.
	body := []byte(`{"ranges":[[3,65000],[0,0]],"maxerr":` + strconv.FormatFloat(1000, 'g', -1, 64) + `}`)
	want := 1000.0
	if got, ok := serve.ScanBatchRequest(body); !ok || !sameRequest(got, serve.BatchRequest{MaxErr: &want, Ranges: [][2]int{{3, 65000}, {0, 0}}}) {
		t.Fatalf("perfbench body %s scanned as %+v, %v", body, got, ok)
	}
}
