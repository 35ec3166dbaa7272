package numenc

import (
	"errors"
	mrand "math/rand"
	"sort"
	"strings"
	"testing"
	"testing/quick"
)

func paperCodec(t testing.TB) *StringCodec {
	t.Helper()
	c, err := NewStringCodec(PaperAlphabet, 5)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestNewStringCodecValidation(t *testing.T) {
	if _, err := NewStringCodec("A", 3); err == nil {
		t.Error("single-symbol alphabet accepted")
	}
	if _, err := NewStringCodec("AB", 0); err == nil {
		t.Error("zero width accepted")
	}
	if _, err := NewStringCodec("ABA", 3); err == nil {
		t.Error("duplicate rune accepted")
	}
	// 64 symbols × 11 runes = 66 bits > 61.
	if _, err := NewStringCodec(PrintableAlphabet, 11); err == nil {
		t.Error("oversized domain accepted")
	}
	if _, err := NewStringCodec(PrintableAlphabet, 10); err != nil {
		t.Errorf("valid codec rejected: %v", err)
	}
}

// The paper's worked example: "ABC" is padded to "ABC**" and read as the
// base-27 numeral (1 2 3 0 0). Note: the paper states this equals 21998878,
// which is arithmetically wrong — (12300)_27 = 1·27^4 + 2·27^3 + 3·27^2 =
// 572994. We implement the encoding the paper defines and document the
// erratum in EXPERIMENTS.md.
func TestPaperExampleABC(t *testing.T) {
	c := paperCodec(t)
	got, err := c.Encode("ABC")
	if err != nil {
		t.Fatal(err)
	}
	want := uint64(1*27*27*27*27 + 2*27*27*27 + 3*27*27)
	if want != 572994 {
		t.Fatalf("test arithmetic wrong: %d", want)
	}
	if got != want {
		t.Fatalf("Encode(ABC) = %d, want %d", got, want)
	}
	back, err := c.Decode(got)
	if err != nil {
		t.Fatal(err)
	}
	if back != "ABC" {
		t.Fatalf("Decode = %q, want ABC", back)
	}
}

func TestPaperExampleFATIH(t *testing.T) {
	c := paperCodec(t)
	// "FATIH" already has 5 characters, so no padding.
	v, err := c.Encode("FATIH")
	if err != nil {
		t.Fatal(err)
	}
	back, err := c.Decode(v)
	if err != nil {
		t.Fatal(err)
	}
	if back != "FATIH" {
		t.Fatalf("round trip gave %q", back)
	}
}

func TestEncodeErrors(t *testing.T) {
	c := paperCodec(t)
	if _, err := c.Encode("TOOLONGNAME"); !errors.Is(err, ErrTooLong) {
		t.Errorf("long string: %v", err)
	}
	if _, err := c.Encode("ab"); !errors.Is(err, ErrBadRune) {
		t.Errorf("lowercase outside alphabet: %v", err)
	}
	if _, err := c.Decode(c.Max() + 1); !errors.Is(err, ErrOutOfRange) {
		t.Errorf("decode out of range: %v", err)
	}
}

func TestEncodeRoundTripQuick(t *testing.T) {
	c := paperCodec(t)
	letters := []rune(PaperAlphabet)[1:] // skip the pad
	prop := func(seed int64, n uint8) bool {
		rng := mrand.New(mrand.NewSource(seed))
		length := int(n) % 6
		var b strings.Builder
		for i := 0; i < length; i++ {
			b.WriteRune(letters[rng.Intn(len(letters))])
		}
		s := b.String()
		v, err := c.Encode(s)
		if err != nil {
			return false
		}
		back, err := c.Decode(v)
		return err == nil && back == s
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// Numeric order of encodings equals lexicographic order of padded strings,
// the property that turns string predicates into range queries.
func TestEncodingPreservesLexOrder(t *testing.T) {
	c := paperCodec(t)
	names := []string{"", "A", "AA", "AB", "ABC", "ALBERT"[:5], "B", "FATIH", "JACK", "JOHN", "Z", "ZZZZZ"}
	sort.Strings(names)
	var prevV uint64
	for i, name := range names {
		v, err := c.Encode(name)
		if err != nil {
			t.Fatal(err)
		}
		if i > 0 && names[i] != names[i-1] && v <= prevV {
			t.Fatalf("order violated: %q (%d) after %q (%d)", name, v, names[i-1], prevV)
		}
		prevV = v
	}
}

// "Retrieve employees whose name starts with AB" compiles to a range.
func TestPrefixRange(t *testing.T) {
	c := paperCodec(t)
	lo, hi, err := c.PrefixRange("AB")
	if err != nil {
		t.Fatal(err)
	}
	inside := []string{"AB", "ABA", "ABC", "ABZZZ"}
	outside := []string{"AA", "AAZZZ", "AC", "B", "A"}
	for _, s := range inside {
		v, err := c.Encode(s)
		if err != nil {
			t.Fatal(err)
		}
		if v < lo || v > hi {
			t.Errorf("%q should be inside prefix range", s)
		}
	}
	for _, s := range outside {
		v, err := c.Encode(s)
		if err != nil {
			t.Fatal(err)
		}
		if v >= lo && v <= hi {
			t.Errorf("%q should be outside prefix range", s)
		}
	}
	if _, _, err := c.PrefixRange("TOOLONGPREFIX"); !errors.Is(err, ErrTooLong) {
		t.Errorf("long prefix: %v", err)
	}
	if _, _, err := c.PrefixRange("ab"); !errors.Is(err, ErrBadRune) {
		t.Errorf("bad rune: %v", err)
	}
}

// "name BETWEEN Albert AND Jack" — the paper's example, adapted to the
// uppercase alphabet.
func TestBetweenRange(t *testing.T) {
	c := paperCodec(t)
	lo, hi, err := c.BetweenRange("ALBER", "JACK")
	if err != nil {
		t.Fatal(err)
	}
	inside := []string{"ALBER", "BOB", "CAROL", "JACK", "JACKZ", "IVY"}
	outside := []string{"ALBEQ", "AL", "KEVIN", "ZOE"}
	for _, s := range inside {
		v, err := c.Encode(s)
		if err != nil {
			t.Fatal(err)
		}
		if v < lo || v > hi {
			t.Errorf("%q should be inside BETWEEN range", s)
		}
	}
	for _, s := range outside {
		v, err := c.Encode(s)
		if err != nil {
			t.Fatal(err)
		}
		if v >= lo && v <= hi {
			t.Errorf("%q should be outside BETWEEN range", s)
		}
	}
	if _, _, err := c.BetweenRange("??", "A"); err == nil {
		t.Error("bad low bound accepted")
	}
	if _, _, err := c.BetweenRange("A", "??"); err == nil {
		t.Error("bad high bound accepted")
	}
}

func TestStringCodecMetadata(t *testing.T) {
	c := paperCodec(t)
	if c.Base() != 27 || c.Width() != 5 {
		t.Fatalf("Base=%d Width=%d", c.Base(), c.Width())
	}
	// 27^5 needs 24 bits.
	if c.Bits() != 24 {
		t.Fatalf("Bits = %d, want 24", c.Bits())
	}
	if c.Max() != uint64(27*27*27*27*27-1) {
		t.Fatalf("Max = %d", c.Max())
	}
}

func TestSignedCodec(t *testing.T) {
	if _, err := NewSignedCodec(1); err == nil {
		t.Error("bits=1 accepted")
	}
	if _, err := NewSignedCodec(62); err == nil {
		t.Error("bits=62 accepted")
	}
	c, err := NewSignedCodec(16)
	if err != nil {
		t.Fatal(err)
	}
	cases := []int64{-32768, -1, 0, 1, 32767}
	var prev uint64
	for i, v := range cases {
		u, err := c.Encode(v)
		if err != nil {
			t.Fatal(err)
		}
		if i > 0 && u <= prev {
			t.Fatalf("order violated at %d", v)
		}
		prev = u
		back, err := c.Decode(u)
		if err != nil || back != v {
			t.Fatalf("round trip %d -> %d (%v)", v, back, err)
		}
	}
	if _, err := c.Encode(32768); !errors.Is(err, ErrOutOfRange) {
		t.Errorf("overflow accepted: %v", err)
	}
	if _, err := c.Encode(-32769); !errors.Is(err, ErrOutOfRange) {
		t.Errorf("underflow accepted: %v", err)
	}
	if _, err := c.Decode(1 << 16); !errors.Is(err, ErrOutOfRange) {
		t.Errorf("bad decode accepted: %v", err)
	}
}

func TestDecimalCodec(t *testing.T) {
	c, err := NewDecimalCodec(2, 40)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		in     string
		scaled int64
		out    string
	}{
		{"0", 0, "0.00"},
		{"1", 100, "1.00"},
		{"10.5", 1050, "10.50"},
		{"-3.25", -325, "-3.25"},
		{"+7.01", 701, "7.01"},
		{"40000.00", 4000000, "40000.00"},
		{".5", 50, "0.50"},
	}
	for _, tc := range cases {
		u, err := c.EncodeString(tc.in)
		if err != nil {
			t.Fatalf("EncodeString(%q): %v", tc.in, err)
		}
		scaled, err := c.DecodeScaled(u)
		if err != nil || scaled != tc.scaled {
			t.Fatalf("DecodeScaled(%q) = %d (%v), want %d", tc.in, scaled, err, tc.scaled)
		}
		s, err := c.DecodeString(u)
		if err != nil || s != tc.out {
			t.Fatalf("DecodeString(%q) = %q (%v), want %q", tc.in, s, err, tc.out)
		}
	}
	if _, err := c.EncodeString("1.234"); !errors.Is(err, ErrLostPrec) {
		t.Errorf("excess precision accepted: %v", err)
	}
	for _, bad := range []string{"", "-", "1..2", "abc", "1.2x"} {
		if _, err := c.EncodeString(bad); err == nil {
			t.Errorf("malformed literal %q accepted", bad)
		}
	}
	if _, err := NewDecimalCodec(-1, 40); err == nil {
		t.Error("negative scale accepted")
	}
	if _, err := NewDecimalCodec(13, 40); err == nil {
		t.Error("huge scale accepted")
	}
}

func TestDecimalCodecOrderPreserving(t *testing.T) {
	c, err := NewDecimalCodec(2, 40)
	if err != nil {
		t.Fatal(err)
	}
	prop := func(a, b int32) bool {
		ua, err1 := c.EncodeScaled(int64(a))
		ub, err2 := c.EncodeScaled(int64(b))
		if err1 != nil || err2 != nil {
			return false
		}
		return (a < b) == (ua < ub) && (a == b) == (ua == ub)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func TestDecimalCodecScaleZero(t *testing.T) {
	c, err := NewDecimalCodec(0, 32)
	if err != nil {
		t.Fatal(err)
	}
	u, err := c.EncodeString("42")
	if err != nil {
		t.Fatal(err)
	}
	s, err := c.DecodeString(u)
	if err != nil || s != "42" {
		t.Fatalf("got %q, %v", s, err)
	}
	if c.Scale() != 0 {
		t.Fatal("scale mismatch")
	}
}

func BenchmarkStringEncode(b *testing.B) {
	c := paperCodec(b)
	for i := 0; i < b.N; i++ {
		if _, err := c.Encode("FATIH"); err != nil {
			b.Fatal(err)
		}
	}
}

// decodeReference is the straightforward StringCodec.Decode: digits into a
// slice, runes through a strings.Builder, then trim the pad runes.
func decodeReference(c *StringCodec, v uint64) string {
	base := uint64(len(c.alphabet))
	digits := make([]int, c.width)
	for i := c.width - 1; i >= 0; i-- {
		digits[i] = int(v % base)
		v /= base
	}
	var b strings.Builder
	for _, d := range digits {
		b.WriteRune(c.alphabet[d])
	}
	return strings.TrimRight(b.String(), string(c.alphabet[0]))
}

// TestDecodeMatchesReference checks the single-allocation Decode against
// the reference on random values, the extremes, values whose digits end in
// pads, and an alphabet of multi-byte runes, and that it allocates at most
// once.
func TestDecodeMatchesReference(t *testing.T) {
	rng := mrand.New(mrand.NewSource(13))
	for _, cfg := range []struct {
		alphabet string
		width    int
	}{
		{PaperAlphabet, 5},
		{PrintableAlphabet, 10},
		{"·αβγδ€", 12},
		{"01", 61},
	} {
		c, err := NewStringCodec(cfg.alphabet, cfg.width)
		if err != nil {
			t.Fatal(err)
		}
		base := uint64(c.Base())
		vals := []uint64{0, 1, base - 1, base, c.Max(), c.Max() - 1, c.Max() / base * base}
		for i := 0; i < 500; i++ {
			v := rng.Uint64() % (c.Max() + 1)
			// Zero some trailing digits so trimming has pads to drop.
			pow := uint64(1)
			for p := rng.Intn(c.Width() + 1); p > 0; p-- {
				pow *= base
			}
			vals = append(vals, v, v/pow*pow)
		}
		for _, v := range vals {
			got, err := c.Decode(v)
			if err != nil {
				t.Fatalf("%q/%d: Decode(%d): %v", cfg.alphabet, cfg.width, v, err)
			}
			if want := decodeReference(c, v); got != want {
				t.Fatalf("%q/%d: Decode(%d) = %q, want %q", cfg.alphabet, cfg.width, v, got, want)
			}
		}
		if _, err := c.Decode(c.Max() + 1); !errors.Is(err, ErrOutOfRange) {
			t.Fatalf("%q/%d: Decode(Max+1) = %v, want ErrOutOfRange", cfg.alphabet, cfg.width, err)
		}
		v := c.Max() / 3
		if a := testing.AllocsPerRun(20, func() { c.Decode(v) }); a > 1 {
			t.Errorf("%q/%d: Decode made %.0f allocations, want at most 1", cfg.alphabet, cfg.width, a)
		}
	}
}
