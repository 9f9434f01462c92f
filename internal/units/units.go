// Package units defines the physical quantities used throughout the
// simulator: simulated time, data sizes, and link rates.
//
// Simulated time is kept as an int64 count of picoseconds. At 100 Gbps one
// byte serializes in 80 ps, so picosecond resolution keeps per-byte
// serialization times exact where nanoseconds would accumulate rounding
// error. The int64 range still covers over 100 days of simulated time.
package units

import (
	"fmt"
	"math"
	mathbits "math/bits"
	"time"
)

// Time is a point in simulated time, in picoseconds since simulation start.
type Time int64

// Duration is a span of simulated time, in picoseconds.
type Duration int64

// Common durations.
const (
	Picosecond  Duration = 1
	Nanosecond           = 1000 * Picosecond
	Microsecond          = 1000 * Nanosecond
	Millisecond          = 1000 * Microsecond
	Second               = 1000 * Millisecond
	Minute               = 60 * Second
)

// MaxTime is the largest representable simulation time. It is used as the
// "never" sentinel for unarmed timers.
const MaxTime Time = math.MaxInt64

// MaxDuration is the largest representable duration. Transmit saturates
// here instead of wrapping when a transfer projects past the horizon.
const MaxDuration Duration = math.MaxInt64

// Add returns t shifted by d.
func (t Time) Add(d Duration) Time { return t + Time(d) }

// Sub returns the duration elapsed from u to t.
func (t Time) Sub(u Time) Duration { return Duration(t - u) }

// Seconds returns the time as floating-point seconds.
func (t Time) Seconds() float64 { return float64(t) / float64(Second) }

// String renders the time with an adaptive unit.
func (t Time) String() string { return Duration(t).String() }

// FromStd converts a time.Duration to a simulated Duration.
func FromStd(d time.Duration) Duration { return Duration(d.Nanoseconds()) * Nanosecond }

// Std converts a simulated Duration to a time.Duration, rounding toward zero.
func (d Duration) Std() time.Duration { return time.Duration(d / Nanosecond) }

// Seconds returns the duration as floating-point seconds.
func (d Duration) Seconds() float64 { return float64(d) / float64(Second) }

// Scale multiplies the duration by a dimensionless factor.
func (d Duration) Scale(f float64) Duration {
	return Duration(math.Round(float64(d) * f))
}

// String renders the duration with an adaptive unit.
func (d Duration) String() string {
	switch {
	case d == 0:
		return "0s"
	case d%Second == 0:
		return fmt.Sprintf("%ds", d/Second)
	case d%Millisecond == 0:
		return fmt.Sprintf("%dms", d/Millisecond)
	case d%Microsecond == 0:
		return fmt.Sprintf("%dus", d/Microsecond)
	case d%Nanosecond == 0:
		return fmt.Sprintf("%dns", d/Nanosecond)
	default:
		return fmt.Sprintf("%dps", int64(d))
	}
}

// Seconds constructs a Duration from floating-point seconds.
func Seconds(s float64) Duration {
	return Duration(math.Round(s * float64(Second)))
}

// ByteSize is a quantity of data in bytes.
type ByteSize int64

// Common sizes. KB/MB/GB follow the networking convention of powers of ten
// used by the paper ("85KB of buffer", "100KB demotion threshold").
const (
	Byte ByteSize = 1
	KB            = 1000 * Byte
	MB            = 1000 * KB
	GB            = 1000 * MB

	// KiB is the power-of-two kilobyte, used where the paper means
	// MTU-style sizes (1.5KB quantum = 1500 bytes, so decimal; kept for
	// completeness of the API).
	KiB = 1024 * Byte
)

// Bits returns the size in bits.
func (b ByteSize) Bits() int64 { return int64(b) * 8 }

// String renders the size with an adaptive decimal unit.
func (b ByteSize) String() string {
	switch {
	case b >= GB && b%GB == 0:
		return fmt.Sprintf("%dGB", b/GB)
	case b >= MB && b%MB == 0:
		return fmt.Sprintf("%dMB", b/MB)
	case b >= KB && b%KB == 0:
		return fmt.Sprintf("%dKB", b/KB)
	default:
		return fmt.Sprintf("%dB", int64(b))
	}
}

// Rate is a link or flow rate in bits per second.
type Rate int64

// Common rates.
const (
	BitPerSecond Rate = 1
	Kbps              = 1000 * BitPerSecond
	Mbps              = 1000 * Kbps
	Gbps              = 1000 * Mbps
)

// String renders the rate with an adaptive unit.
func (r Rate) String() string {
	switch {
	case r >= Gbps && r%Gbps == 0:
		return fmt.Sprintf("%dGbps", r/Gbps)
	case r >= Mbps && r%Mbps == 0:
		return fmt.Sprintf("%dMbps", r/Mbps)
	case r >= Kbps && r%Kbps == 0:
		return fmt.Sprintf("%dKbps", r/Kbps)
	default:
		return fmt.Sprintf("%dbps", int64(r))
	}
}

// Transmit returns the serialization delay of b bytes at rate r.
func (r Rate) Transmit(b ByteSize) Duration {
	if r <= 0 {
		panic("units: non-positive rate")
	}
	if b <= 0 {
		return 0
	}
	// duration_ps = bits * 1e12 / r, computed in 128-bit arithmetic: the
	// intermediate product overflows int64 for transfers past a few MB, and
	// a wrapped negative duration would arm simulator timers in the past.
	// Saturates at MaxDuration when the true duration exceeds the horizon.
	hi, lo := mathbits.Mul64(uint64(b.Bits()), uint64(Second))
	if hi >= uint64(r) {
		return MaxDuration
	}
	q, _ := mathbits.Div64(hi, lo, uint64(r))
	if q > uint64(MaxDuration) {
		return MaxDuration
	}
	return Duration(q)
}

// BytesIn returns how many whole bytes rate r delivers in duration d.
func (r Rate) BytesIn(d Duration) ByteSize {
	if d <= 0 {
		return 0
	}
	// bytes = r * d / (8 * 1e12), computed in 128-bit arithmetic so Gbps
	// rates over long spans cannot overflow the intermediate product.
	// Saturates at the largest ByteSize if the true count does not fit.
	const div = uint64(8) * uint64(Second)
	hi, lo := mathbits.Mul64(uint64(r), uint64(d))
	if hi == 0 {
		// The product fits in 64 bits, and a divide by a constant compiles
		// to a multiply; the quotient is below 2^64/8e12, so it fits too.
		return ByteSize(lo / div)
	}
	if hi >= div {
		return ByteSize(math.MaxInt64)
	}
	q, _ := mathbits.Div64(hi, lo, div)
	if q > math.MaxInt64 {
		return ByteSize(math.MaxInt64)
	}
	return ByteSize(q)
}

// BDP returns the bandwidth-delay product C × RTT in bytes.
func BDP(c Rate, rtt Duration) ByteSize { return c.BytesIn(rtt) }

// Throughput returns the average rate of b bytes delivered over d.
func Throughput(b ByteSize, d Duration) Rate {
	if d <= 0 {
		return 0
	}
	return Rate(float64(b.Bits()) / d.Seconds())
}
