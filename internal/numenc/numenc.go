// Package numenc converts non-numeric attribute values into order-preserving
// numbers so that the secret-sharing machinery — defined over numeric
// domains — applies to them unchanged (paper Sec. V-B).
//
// Strings are padded with a minimal blank symbol to a fixed width and read
// as digits in base |alphabet|: the paper's example enumerates
// {* = 0, A = 1, ..., Z = 26} and treats VARCHAR(5) names as base-27
// numbers. Because the pad symbol is the smallest digit, numeric order of
// the encoding equals lexicographic order of the strings, so "name starts
// with AB" and "name BETWEEN Albert AND Jack" compile into plain numeric
// range queries.
//
// The package also provides order-preserving codecs for signed integers and
// fixed-point decimals (salaries, prices), which bias values into an
// unsigned domain.
package numenc

import (
	"errors"
	"fmt"
	"math"
	"strings"
	"unicode/utf8"
)

// Encoding errors.
var (
	ErrTooLong     = errors.New("numenc: string longer than codec width")
	ErrBadRune     = errors.New("numenc: rune outside codec alphabet")
	ErrOutOfRange  = errors.New("numenc: value outside codec range")
	ErrBadAlphabet = errors.New("numenc: invalid alphabet")
	ErrNotANumber  = errors.New("numenc: malformed decimal literal")
	ErrLostPrec    = errors.New("numenc: decimal has more fractional digits than the codec scale")
)

// StringCodec encodes fixed-width strings over an ordered alphabet.
// The zero digit is the implicit pad symbol appended to short strings.
type StringCodec struct {
	width    int
	alphabet []rune
	index    map[rune]int
}

// PaperAlphabet is the alphabet of the paper's worked example: the blank
// pad '*' followed by the uppercase English letters, base 27.
const PaperAlphabet = "*ABCDEFGHIJKLMNOPQRSTUVWXYZ"

// PrintableAlphabet covers lowercase identifiers and digits with a leading
// pad; handy for realistic name columns. Order follows byte order.
const PrintableAlphabet = " 0123456789ABCDEFGHIJKLMNOPQRSTUVWXYZ_abcdefghijklmnopqrstuvwxyz"

// NewStringCodec builds a codec for strings of at most width runes over the
// given alphabet. The first alphabet rune is the pad symbol and must sort
// lowest; runes must be unique. The encoded domain must fit in 61 bits.
func NewStringCodec(alphabet string, width int) (*StringCodec, error) {
	runes := []rune(alphabet)
	if len(runes) < 2 {
		return nil, fmt.Errorf("%w: need at least 2 symbols", ErrBadAlphabet)
	}
	if width < 1 {
		return nil, fmt.Errorf("%w: width %d", ErrBadAlphabet, width)
	}
	idx := make(map[rune]int, len(runes))
	for i, r := range runes {
		if _, dup := idx[r]; dup {
			return nil, fmt.Errorf("%w: duplicate rune %q", ErrBadAlphabet, r)
		}
		idx[r] = i
	}
	c := &StringCodec{width: width, alphabet: runes, index: idx}
	if c.Bits() > 61 {
		return nil, fmt.Errorf("%w: base %d width %d needs %d bits (max 61)",
			ErrBadAlphabet, len(runes), width, c.Bits())
	}
	return c, nil
}

// Base returns the alphabet size.
func (c *StringCodec) Base() int { return len(c.alphabet) }

// Width returns the fixed encoding width in runes.
func (c *StringCodec) Width() int { return c.width }

// Bits returns the number of bits needed to hold any encoded value,
// ceil(width * log2(base)).
func (c *StringCodec) Bits() uint {
	return uint(math.Ceil(float64(c.width) * math.Log2(float64(len(c.alphabet)))))
}

// Max returns the largest encodable value (the all-max-digit string).
func (c *StringCodec) Max() uint64 {
	base := uint64(len(c.alphabet))
	var v uint64
	for i := 0; i < c.width; i++ {
		v = v*base + (base - 1)
	}
	return v
}

// Encode converts s into its order-preserving numeric value, padding with
// the pad symbol on the right.
func (c *StringCodec) Encode(s string) (uint64, error) {
	runes := []rune(s)
	if len(runes) > c.width {
		return 0, fmt.Errorf("%w: %q exceeds width %d", ErrTooLong, s, c.width)
	}
	base := uint64(len(c.alphabet))
	var v uint64
	for i := 0; i < c.width; i++ {
		digit := 0
		if i < len(runes) {
			d, ok := c.index[runes[i]]
			if !ok {
				return 0, fmt.Errorf("%w: %q in %q", ErrBadRune, runes[i], s)
			}
			digit = d
		}
		v = v*base + uint64(digit)
	}
	return v, nil
}

// Decode converts an encoded value back into a string, trimming the
// right-padding. The digits are computed on the stack and sized before the
// string is built, so a decode makes at most one allocation.
func (c *StringCodec) Decode(v uint64) (string, error) {
	if v > c.Max() {
		return "", fmt.Errorf("%w: %d > %d", ErrOutOfRange, v, c.Max())
	}
	// Bits() <= 61 and base >= 2 bound the width to 61 digits.
	var digits [61]int
	base := uint64(len(c.alphabet))
	for i := c.width - 1; i >= 0; i-- {
		digits[i] = int(v % base)
		v /= base
	}
	// The pad symbol is digit 0 and appears nowhere else in the alphabet,
	// so trimming trailing pads is dropping trailing zero digits.
	n := c.width
	for n > 0 && digits[n-1] == 0 {
		n--
	}
	size := 0
	for _, d := range digits[:n] {
		size += utf8.RuneLen(c.alphabet[d])
	}
	var b strings.Builder
	b.Grow(size)
	for _, d := range digits[:n] {
		b.WriteRune(c.alphabet[d])
	}
	return b.String(), nil
}

// PrefixRange returns the inclusive numeric interval [lo, hi] covering
// exactly the strings that start with prefix — the compilation of the
// paper's "employees whose name starts with AB" into a range query.
func (c *StringCodec) PrefixRange(prefix string) (lo, hi uint64, err error) {
	runes := []rune(prefix)
	if len(runes) > c.width {
		return 0, 0, fmt.Errorf("%w: prefix %q exceeds width %d", ErrTooLong, prefix, c.width)
	}
	lo, err = c.Encode(prefix)
	if err != nil {
		return 0, 0, err
	}
	// hi is the prefix's digits followed by a max-digit fill.
	base := uint64(len(c.alphabet))
	for i := 0; i < c.width; i++ {
		var digit uint64
		if i < len(runes) {
			d, ok := c.index[runes[i]]
			if !ok {
				return 0, 0, fmt.Errorf("%w: %q in %q", ErrBadRune, runes[i], prefix)
			}
			digit = uint64(d)
		} else {
			digit = base - 1
		}
		hi = hi*base + digit
	}
	return lo, hi, nil
}

// BetweenRange returns the inclusive numeric interval for the string range
// [lo, hi] under pad-extended lexicographic order ("name BETWEEN Albert AND
// Jack"): short bounds behave as if right-padded with the minimal symbol on
// the low end and compared as-is on the high end, matching SQL semantics
// for trailing-blank-insensitive comparison.
func (c *StringCodec) BetweenRange(lo, hi string) (uint64, uint64, error) {
	l, err := c.Encode(lo)
	if err != nil {
		return 0, 0, err
	}
	// The high bound must cover every string with prefix hi.
	_, h, err := c.PrefixRange(hi)
	if err != nil {
		return 0, 0, err
	}
	return l, h, nil
}

// SignedCodec maps int64 values into an unsigned order-preserving domain of
// the given bit width by biasing: enc(v) = v + 2^(bits-1).
type SignedCodec struct {
	bits uint
}

// NewSignedCodec builds a codec for signed integers in
// [-2^(bits-1), 2^(bits-1)). bits must be in [2, 61].
func NewSignedCodec(bits uint) (*SignedCodec, error) {
	if bits < 2 || bits > 61 {
		return nil, fmt.Errorf("%w: bits %d", ErrOutOfRange, bits)
	}
	return &SignedCodec{bits: bits}, nil
}

// Bits returns the codec's bit width.
func (c *SignedCodec) Bits() uint { return c.bits }

// Encode maps v into the unsigned domain.
func (c *SignedCodec) Encode(v int64) (uint64, error) {
	half := int64(1) << (c.bits - 1)
	if v < -half || v >= half {
		return 0, fmt.Errorf("%w: %d outside [%d, %d)", ErrOutOfRange, v, -half, half)
	}
	return uint64(v + half), nil
}

// Decode inverts Encode.
func (c *SignedCodec) Decode(u uint64) (int64, error) {
	if u >= uint64(1)<<c.bits {
		return 0, fmt.Errorf("%w: %d", ErrOutOfRange, u)
	}
	half := int64(1) << (c.bits - 1)
	return int64(u) - half, nil
}

// DecimalCodec encodes fixed-point decimals with a fixed number of
// fractional digits as biased integers, preserving numeric order.
type DecimalCodec struct {
	scale  int   // number of fractional digits
	pow    int64 // 10^scale
	signed *SignedCodec
}

// NewDecimalCodec builds a codec with the given fractional scale whose
// scaled values fit the given bit width.
func NewDecimalCodec(scale int, bits uint) (*DecimalCodec, error) {
	if scale < 0 || scale > 12 {
		return nil, fmt.Errorf("%w: scale %d", ErrOutOfRange, scale)
	}
	sc, err := NewSignedCodec(bits)
	if err != nil {
		return nil, err
	}
	pow := int64(1)
	for i := 0; i < scale; i++ {
		pow *= 10
	}
	return &DecimalCodec{scale: scale, pow: pow, signed: sc}, nil
}

// Scale returns the number of fractional digits.
func (c *DecimalCodec) Scale() int { return c.scale }

// EncodeString parses a decimal literal such as "-123.45" and encodes it.
func (c *DecimalCodec) EncodeString(s string) (uint64, error) {
	scaled, err := c.parse(s)
	if err != nil {
		return 0, err
	}
	return c.signed.Encode(scaled)
}

// EncodeScaled encodes an already-scaled integer (value * 10^scale).
func (c *DecimalCodec) EncodeScaled(scaled int64) (uint64, error) {
	return c.signed.Encode(scaled)
}

// DecodeScaled returns the scaled integer behind an encoded value.
func (c *DecimalCodec) DecodeScaled(u uint64) (int64, error) {
	return c.signed.Decode(u)
}

// DecodeString renders an encoded value as a decimal literal.
func (c *DecimalCodec) DecodeString(u uint64) (string, error) {
	scaled, err := c.signed.Decode(u)
	if err != nil {
		return "", err
	}
	if c.scale == 0 {
		return fmt.Sprintf("%d", scaled), nil
	}
	neg := scaled < 0
	if neg {
		scaled = -scaled
	}
	whole, frac := scaled/c.pow, scaled%c.pow
	sign := ""
	if neg {
		sign = "-"
	}
	return fmt.Sprintf("%s%d.%0*d", sign, whole, c.scale, frac), nil
}

// parse converts a decimal literal to a scaled integer without floating
// point, rejecting excess precision rather than silently rounding.
func (c *DecimalCodec) parse(s string) (int64, error) {
	s = strings.TrimSpace(s)
	if s == "" {
		return 0, fmt.Errorf("%w: empty literal", ErrNotANumber)
	}
	neg := false
	switch s[0] {
	case '-':
		neg = true
		s = s[1:]
	case '+':
		s = s[1:]
	}
	whole, frac, hasFrac := s, "", false
	if i := strings.IndexByte(s, '.'); i >= 0 {
		whole, frac, hasFrac = s[:i], s[i+1:], true
	}
	if whole == "" && frac == "" {
		return 0, fmt.Errorf("%w: %q", ErrNotANumber, s)
	}
	if hasFrac && len(frac) > c.scale {
		return 0, fmt.Errorf("%w: %q has %d fractional digits, codec scale is %d",
			ErrLostPrec, s, len(frac), c.scale)
	}
	var scaled int64
	for _, r := range whole {
		if r < '0' || r > '9' {
			return 0, fmt.Errorf("%w: %q", ErrNotANumber, s)
		}
		d := int64(r - '0')
		if scaled > (math.MaxInt64-d)/10 {
			return 0, fmt.Errorf("%w: %q overflows", ErrOutOfRange, s)
		}
		scaled = scaled*10 + d
	}
	for i := 0; i < c.scale; i++ {
		var d int64
		if i < len(frac) {
			r := frac[i]
			if r < '0' || r > '9' {
				return 0, fmt.Errorf("%w: %q", ErrNotANumber, s)
			}
			d = int64(r - '0')
		}
		if scaled > (math.MaxInt64-d)/10 {
			return 0, fmt.Errorf("%w: %q overflows", ErrOutOfRange, s)
		}
		scaled = scaled*10 + d
	}
	if neg {
		scaled = -scaled
	}
	return scaled, nil
}
