package scenario_test

import (
	"math"
	"testing"

	"streamad/internal/scenario"
)

// fuzzSeedSpecs are accepted specs of every layer kind, from the tests of
// this package and the repo's soak scripts.
var fuzzSeedSpecs = []string{
	"base()",
	"base(corpus=gauss,channels=3,p=0.05,pool=100)",
	"dropout(season(drift(base(corpus=gauss,channels=4,p=0.02,pool=256),kind=gradual,at=100,span=50,shift=3),period=64,amp=0.5),at=200,span=20,channels=1,mode=stuck)",
	"burst(base(corpus=daphnet,p=0.01,pool=512,len=2600),at=100,span=10,period=200)",
	"reorder(late(jitter(base(corpus=gauss,channels=2,p=0,pool=64),frac=0.3),p=0.02,delay=100ms),p=0.05)",
	"drift( base( corpus=gauss, channels=2, p=0.1, pool=50 ), kind=abrupt, at=10 )",
	"scale(drift(base(corpus=gauss,channels=8,p=0.02,pool=2048),kind=recurring,at=40,span=12,period=50,scale=2,mix=0.5),at=30,mul=0.5)",
	"dropout(base(corpus=gauss,pool=32),at=3,span=4,period=9,channels=2,mode=nan)",
}

// FuzzScenarioParse: Parse never panics, and a spec it accepts builds a
// stream that replays bit-identically — two NewStream(1) calls agree on
// their first 32 vectors and labels. Seeds: the specs above, the rejected
// ones of TestParseErrors and testdata/fuzz.
func FuzzScenarioParse(f *testing.F) {
	for _, s := range fuzzSeedSpecs {
		f.Add(s)
	}
	for _, tc := range parseErrorCases {
		f.Add(tc.spec)
	}
	f.Fuzz(func(t *testing.T, spec string) {
		sc, err := scenario.Parse(spec)
		if err != nil {
			return
		}
		a, err := sc.NewStream(1)
		if err != nil {
			t.Fatalf("Parse accepted %q but NewStream(1) fails: %v", spec, err)
		}
		b, err := sc.NewStream(1)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 32; i++ {
			va, la := a.Next()
			vb, lb := b.Next()
			if la != lb || len(va) != len(vb) {
				t.Fatalf("%q: step %d: streams of one seed diverge", spec, i)
			}
			for c := range va {
				if math.Float64bits(va[c]) != math.Float64bits(vb[c]) {
					t.Fatalf("%q: step %d channel %d: %v != %v", spec, i, c, va[c], vb[c])
				}
			}
		}
	})
}
