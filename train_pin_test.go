package privehd_test

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"
	"testing"

	"privehd"
	"privehd/internal/hrand"
)

// trainPinData is a deterministic five-class problem: per-class feature
// centres plus uniform jitter, so the encodings carry many tied integer
// magnitudes and the quantizers' tie rule decides real dimensions.
func trainPinData(seed uint64, n, features int) ([][]float64, []int) {
	const classes = 5
	src := hrand.New(seed)
	centres := make([][]float64, classes)
	for c := range centres {
		centres[c] = make([]float64, features)
		for k := range centres[c] {
			centres[c][k] = src.Float64()
		}
	}
	X := make([][]float64, n)
	y := make([]int, n)
	for i := range X {
		c := i % classes
		x := make([]float64, features)
		for k := range x {
			x[k] = math.Min(1, math.Max(0, centres[c][k]+0.3*(src.Float64()-0.5)))
		}
		X[i], y[i] = x, c
	}
	return X, y
}

// trainDigest hashes what training leaves behind: the class vectors'
// float64 bits, the Report and the labels Predict gives a held-out set.
func trainDigest(t *testing.T, p *privehd.Pipeline, testX [][]float64) string {
	t.Helper()
	classes, err := p.ClassVectors()
	if err != nil {
		t.Fatal(err)
	}
	labels, err := p.PredictBatch(testX)
	if err != nil {
		t.Fatal(err)
	}
	h := sha256.New()
	var b [8]byte
	for _, c := range classes {
		for _, v := range c {
			binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
			h.Write(b[:])
		}
	}
	fmt.Fprintf(h, "%+v|%v", p.Report(), labels)
	return fmt.Sprintf("%x", h.Sum(nil)[:16])
}

// trainPins are the digests Train and TrainOnline produced before
// training moved onto the bit-sliced engine and the quantizers onto cut
// points: the trained model must stay bit-identical.
var trainPins = map[string]string{
	"level/2bit/eps":                   "010d6425d69f490cc482817f1cc42122",
	"level/2bit/levels400":             "8b978759311c7dbf2b6e5b500297f398",
	"level/2bit/plain":                 "e03396233edbbf28af3094f9e1fedf01",
	"level/2bit/pruned":                "ea181c486a84daf0790782a98e9fa9ef",
	"level/2bit/pruned-eps":            "774ed1e90c0a31e29342a27693379d9c",
	"level/bipolar/eps":                "ddbd5cf95a83939ed584cb9a994a65fb",
	"level/bipolar/levels400":          "388ff4095aa814120b52835bd6bd1787",
	"level/bipolar/plain":              "dbfbf6331fca1d7c00894aa4b9bb7dd5",
	"level/bipolar/pruned":             "cf64db5fd7512c69f79e242b984ab2ac",
	"level/bipolar/pruned-eps":         "972a5a13d2bcdda26813f6948194363f",
	"level/full/eps":                   "9526a615c5960f3b0beac962e7952897",
	"level/full/levels400":             "a616f74adbd5be0f38b8fd9aa8eafee5",
	"level/full/plain":                 "ab89bb590b71571ddbae746557574b34",
	"level/full/pruned":                "da5ea4bc1bdb373f3288282acec38fbd",
	"level/full/pruned-eps":            "70956ff87f0d0bd1a6b4769e3171ee63",
	"level/ternary-biased/eps":         "badf9b7e6816ecb60e2a8485a0680194",
	"level/ternary-biased/levels400":   "b4c140ed64d38d471a5ae7714826bc61",
	"level/ternary-biased/plain":       "7459e1f719aba25ca724fa75d362cf1f",
	"level/ternary-biased/pruned":      "3cab414f1a4b0323d1518be16e8b537e",
	"level/ternary-biased/pruned-eps":  "7cf63d51783c8ff915853775bf4d3491",
	"level/ternary/eps":                "bf3f227666ba4552c82b3096da761195",
	"level/ternary/levels400":          "114f8baee67d0802054c181d073c39ed",
	"level/ternary/plain":              "8d7604356ce36306295e04f0a1911117",
	"level/ternary/pruned":             "cad21ecd827a37e0b7071bc28f974b26",
	"level/ternary/pruned-eps":         "057d89c4a0f4faf6de94ff8a026c95ff",
	"online/2bit":                      "8990cd32ca4ddee704c5716d0c5eb490",
	"scalar/2bit/eps":                  "7e27d0dffbb8a6598fb779aa608b9694",
	"scalar/2bit/levels400":            "ed27cb6443e27022e9a98c54c72d8b35",
	"scalar/2bit/plain":                "67a4477b76adea47ed2c544aad97558a",
	"scalar/2bit/pruned":               "51349d0d2b1876eb34564e8601f2c0e1",
	"scalar/2bit/pruned-eps":           "c305b2f66bd52ce71bb9d5dfc408928c",
	"scalar/bipolar/eps":               "de3aa25068b21dd770ed86ecc97657cb",
	"scalar/bipolar/levels400":         "6f8d2f6023bcfddf8184e459a4072338",
	"scalar/bipolar/plain":             "0f1ef9483c9ea3226f736e4ce3c85650",
	"scalar/bipolar/pruned":            "61a4ae9d386d97559d49de95ed43bf6a",
	"scalar/bipolar/pruned-eps":        "57af3d60648aae3065c3b01f62c79b14",
	"scalar/full/eps":                  "db623842e79d2d4435dedc36b9692533",
	"scalar/full/levels400":            "7542d614575ab666776d2ffa0a0d70b9",
	"scalar/full/plain":                "7ec2e3279762d961c9f88524cd520b2e",
	"scalar/full/pruned":               "29dc48bf8bdcca0232e7bb43d77b323c",
	"scalar/full/pruned-eps":           "9f95059d56f292432c9328610803bf89",
	"scalar/ternary-biased/eps":        "9efe8ec49e3e72a525026340e8e817ee",
	"scalar/ternary-biased/levels400":  "bf4ff1579a57bbd701013905c27772b4",
	"scalar/ternary-biased/plain":      "f3e85251c96c29eb30674cb4c84f9a34",
	"scalar/ternary-biased/pruned":     "3b5249a945cf47ad619f456e02e2e4dc",
	"scalar/ternary-biased/pruned-eps": "60c1a6be32f558437690503322dd8a39",
	"scalar/ternary/eps":               "f9ee339d2ede0fa3016c35a61dfd86a3",
	"scalar/ternary/levels400":         "e5ddd0a8f24dcf18fff3d485000a5daf",
	"scalar/ternary/plain":             "0746069a688883820b2635326f4cb15a",
	"scalar/ternary/pruned":            "d8f113160c45062d924773aadb83443e",
	"scalar/ternary/pruned-eps":        "f6fd79828cdfb1498be1a695d3856d1d",
}

// TestTrainIsPinned trains every quantizer under level and scalar
// encoding, unpruned and pruned, with and without ε, plus one streaming
// TrainOnline run, and compares each result's digest with its pin.
func TestTrainIsPinned(t *testing.T) {
	X, y := trainPinData(5, 60, 19)
	testX, _ := trainPinData(6, 30, 19)
	got := map[string]string{}
	for _, enc := range []privehd.Encoding{privehd.Level, privehd.Scalar} {
		for _, q := range []string{"bipolar", "ternary", "ternary-biased", "2bit", "full"} {
			for _, v := range []struct {
				name string
				opts []privehd.Option
			}{
				{"plain", nil},
				{"pruned", []privehd.Option{privehd.WithPruning(300)}},
				{"eps", []privehd.Option{privehd.WithNoise(4, 1e-5)}},
				{"pruned-eps", []privehd.Option{privehd.WithPruning(300), privehd.WithNoise(4, 1e-5)}},
				{"levels400", []privehd.Option{privehd.WithLevels(400)}},
			} {
				opts := append([]privehd.Option{privehd.WithDim(450), privehd.WithLevels(12),
					privehd.WithSeed(21), privehd.WithRetrain(2), privehd.WithWorkers(3),
					privehd.WithEncoding(enc), privehd.WithQuantizer(q)}, v.opts...)
				p, err := privehd.New(opts...)
				if err != nil {
					t.Fatal(err)
				}
				if err := p.Train(X, y); err != nil {
					t.Fatal(err)
				}
				got[fmt.Sprintf("%s/%s/%s", enc, q, v.name)] = trainDigest(t, p, testX)
			}
		}
	}
	p, err := privehd.New(privehd.WithDim(450), privehd.WithLevels(12), privehd.WithSeed(21),
		privehd.WithClasses(5), privehd.WithQuantizer("2bit"))
	if err != nil {
		t.Fatal(err)
	}
	for start := 0; start < len(X); start += 20 {
		if _, err := p.TrainOnline(X[start:start+20], y[start:start+20]); err != nil {
			t.Fatal(err)
		}
	}
	got["online/2bit"] = trainDigest(t, p, testX)

	for name, d := range got {
		if want, ok := trainPins[name]; !ok || d != want {
			t.Errorf("%s: digest %s, want %s", name, d, want)
		}
	}
	if len(trainPins) != len(got) {
		t.Errorf("%d pins for %d cases", len(trainPins), len(got))
	}
}
