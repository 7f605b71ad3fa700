package supervise

// BreakerState is the circuit breaker's position.
type BreakerState int

const (
	// BreakerClosed passes every request (healthy).
	BreakerClosed BreakerState = iota
	// BreakerOpen refuses every request until the cooldown elapses.
	BreakerOpen
	// BreakerHalfOpen passes exactly one probe; its outcome closes or
	// reopens the breaker.
	BreakerHalfOpen
)

// Breaker is a circuit breaker for the co-scheduling listener's submit
// path: repeated transient submit refusals (an overloaded batch front-end)
// open the breaker so the listener backs off instead of hot-looping, and a
// half-open probe rediscovers the front-end when it recovers. Three
// consecutive failures open a closed breaker for 60 s, and the cooldown
// doubles on consecutive reopenings up to 480 s.
//
// The breaker runs on virtual time through the Now func and is used only
// from single-threaded DES event callbacks; it needs no locking. A nil
// *Breaker allows everything.
type Breaker struct {
	// Now returns the current virtual time.
	Now func() float64

	state       BreakerState
	consecutive int
	openedAt    float64
	curCooldown float64
	probing     bool

	// Opens counts transitions to the open state; Skips counts requests
	// refused while open.
	Opens, Skips int
}

// The breaker's tuning (see Breaker).
const (
	breakerThreshold   = 3
	breakerCooldown    = 60.0
	breakerCooldownCap = 480.0
)

// NewBreaker builds a closed breaker on the given clock.
func NewBreaker(now func() float64) *Breaker {
	return &Breaker{Now: now}
}

// State returns the breaker's current position, advancing open → half-open
// when the cooldown has elapsed.
func (b *Breaker) State() BreakerState {
	if b == nil {
		return BreakerClosed
	}
	if b.state == BreakerOpen && b.Now != nil && b.Now()-b.openedAt >= b.curCooldown {
		b.state = BreakerHalfOpen
		b.probing = false
	}
	return b.state
}

// Allow reports whether a request may proceed. While open it refuses
// (counting a skip); half-open it passes exactly one probe.
func (b *Breaker) Allow() bool {
	if b == nil {
		return true
	}
	switch b.State() {
	case BreakerClosed:
		return true
	case BreakerHalfOpen:
		if b.probing {
			b.Skips++
			return false
		}
		b.probing = true
		return true
	default: // open
		b.Skips++
		return false
	}
}

// Success records a successful request: a half-open probe closes the
// breaker and resets the cooldown ladder.
func (b *Breaker) Success() {
	if b == nil {
		return
	}
	if b.State() == BreakerHalfOpen {
		b.curCooldown = 0
	}
	b.state = BreakerClosed
	b.consecutive = 0
	b.probing = false
}

// Failure records a failed request: a half-open probe reopens with a
// doubled cooldown; breakerThreshold consecutive failures open a closed
// breaker.
func (b *Breaker) Failure() {
	if b == nil {
		return
	}
	b.consecutive++
	switch b.State() {
	case BreakerHalfOpen:
		b.open(2 * b.curCooldown)
	case BreakerClosed:
		if b.consecutive >= breakerThreshold {
			b.open(breakerCooldown)
		}
	}
}

// open transitions to the open state with the given cooldown, clamped to
// [breakerCooldown, breakerCooldownCap].
func (b *Breaker) open(cooldown float64) {
	if cooldown < breakerCooldown {
		cooldown = breakerCooldown
	}
	if cooldown > breakerCooldownCap {
		cooldown = breakerCooldownCap
	}
	b.state = BreakerOpen
	b.curCooldown = cooldown
	if b.Now != nil {
		b.openedAt = b.Now()
	}
	b.probing = false
	b.Opens++
}
