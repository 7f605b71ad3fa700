package periodic

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// The forms the kernels used before this package: every call must return
// their exact bits.
func wrapRef(x, l float64) float64 {
	x = math.Mod(x, l)
	if x < 0 {
		x += l
	}
	return x
}

func minImageRef(d, l float64) float64 { return d - l*math.Round(d/l) }

// edgeCases are the inputs where a fast path could go wrong for a box of
// side l: signed zeros, both sides of ±l/2 and ±l, one and a half boxes,
// non-finite values and subnormals.
func edgeCases(l float64) []float64 {
	h := l / 2
	inf := math.Inf(1)
	tiny := math.SmallestNonzeroFloat64
	return []float64{
		0, math.Copysign(0, -1),
		h, -h, math.Nextafter(h, 0), math.Nextafter(h, inf), math.Nextafter(-h, 0), math.Nextafter(-h, -inf),
		l, -l, math.Nextafter(l, 0), math.Nextafter(l, inf), math.Nextafter(-l, 0), math.Nextafter(-l, -inf),
		1.5 * l, -1.5 * l, -l - tiny, -tiny, tiny, 4 * tiny, -3 * tiny,
		math.NaN(), inf, -inf, math.MaxFloat64, -math.MaxFloat64,
	}
}

var boxes = []float64{
	10, 40, 80, 1, 0.3, 3, 1e-300, 7 * math.SmallestNonzeroFloat64, math.SmallestNonzeroFloat64,
	math.MaxFloat64, math.Inf(1), math.NaN(), 0, math.Copysign(0, -1), -10,
}

func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

func TestWrapAndMinImageMatchReferenceOnEdges(t *testing.T) {
	for _, l := range boxes {
		for _, x := range append(edgeCases(l), edgeCases(10)...) {
			if got, want := Wrap(x, l), wrapRef(x, l); !sameBits(got, want) {
				t.Errorf("Wrap(%v, %v) = %v (%#x), reference %v (%#x)", x, l, got, math.Float64bits(got), want, math.Float64bits(want))
			}
			if got, want := MinImage(x, l), minImageRef(x, l); !sameBits(got, want) {
				t.Errorf("MinImage(%v, %v) = %v (%#x), reference %v (%#x)", x, l, got, math.Float64bits(got), want, math.Float64bits(want))
			}
		}
	}
	if got := MinImage(math.Copysign(0, -1), 10); math.Signbit(got) {
		t.Errorf("MinImage(-0, 10) = -0; the reference form gives +0")
	}
}

// Raw bit patterns cover every exponent, so NaN payloads, infinities and
// subnormals all appear; a box drawn the same way is checked alongside the
// plausible ones.
func TestWrapAndMinImageMatchReferenceOnRawBits(t *testing.T) {
	raw := func(r *rand.Rand) float64 { return math.Float64frombits(r.Uint64()) }
	cfg := &quick.Config{MaxCount: 20000, Rand: rand.New(rand.NewSource(25))}
	f := func(xb, lb uint64, pick uint8) bool {
		x, l := math.Float64frombits(xb), math.Float64frombits(lb)
		if pick%2 == 0 {
			l = boxes[int(pick/2)%len(boxes)]
		}
		return sameBits(Wrap(x, l), wrapRef(x, l)) && sameBits(MinImage(x, l), minImageRef(x, l))
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
	// And separations of the size the kernels see: uniform in a few boxes.
	r := rand.New(rand.NewSource(7))
	for i := 0; i < 200000; i++ {
		l := []float64{10, 40, 80, 1 + r.Float64()}[i%4]
		d := (r.Float64()*3 - 1.5) * l
		if i%1000 == 0 {
			d = raw(r)
		}
		if !sameBits(MinImage(d, l), minImageRef(d, l)) || !sameBits(Wrap(d, l), wrapRef(d, l)) {
			t.Fatalf("d=%v l=%v: MinImage %v / %v, Wrap %v / %v", d, l,
				MinImage(d, l), minImageRef(d, l), Wrap(d, l), wrapRef(d, l))
		}
	}
}

func TestMinImage(t *testing.T) {
	if d := MinImage(9.5-0.5, 10); math.Abs(d+1) > 1e-12 {
		t.Errorf("MinImage(9.5-0.5, 10) = %v, want -1", d)
	}
	if d := MinImage(1-2, 10); d != -1 {
		t.Errorf("MinImage(1-2, 10) = %v", d)
	}
}

func TestPropertyMinImageBounded(t *testing.T) {
	f := func(a, b uint16) bool {
		l := 10.0
		d := MinImage(float64(a%1000)/100-float64(b%1000)/100, l)
		return d > -l/2-1e-9 && d <= l/2+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestWrap(t *testing.T) {
	for _, c := range []struct{ x, want float64 }{{-1, 9}, {11, 1}, {5, 5}, {0, 0}, {10, 0}, {-10, 0}} {
		if got := Wrap(c.x, 10); got != c.want {
			t.Errorf("Wrap(%v, 10) = %v, want %v", c.x, got, c.want)
		}
	}
}
