package core

// Option is a functional setting for query execution. Options built with
// NewOptions and struct-literal Options are interchangeable — the
// constructors exist because the struct encodes "unset" as the zero value,
// which makes a literal 0 for the fraction fields inexpressible without the
// negative-sentinel convention documented on the struct. The constructors
// take the value you mean: WithStep2Accuracy(0) requests a literal 0.
type Option func(*Options)

// NewOptions builds an Options value from functional settings. With no
// arguments it is equivalent to Options{} — every optimisation from the
// paper enabled, fractions at their paper defaults.
func NewOptions(opts ...Option) Options {
	var o Options
	for _, fn := range opts {
		fn(&o)
	}
	return o
}

// WithStep2Accuracy sets the lb/ub accuracy at which step 2 stops
// tightening the k-th neighbour's upper bound. Unlike assigning the struct
// field, the argument is taken literally: 0 means "accept any finite bound,
// no tightening" (stored as the negative sentinel the struct field needs to
// express that).
func WithStep2Accuracy(v float64) Option {
	return func(o *Options) { o.Step2Accuracy = literalFraction(v) }
}

// WithOverlapThreshold sets the minimum overlap fraction for merging I/O
// regions. The argument is taken literally: 0 means "merge any intersecting
// regions".
func WithOverlapThreshold(v float64) Option {
	return func(o *Options) { o.OverlapThreshold = literalFraction(v) }
}

// WithIOIntegration enables or disables merging of significantly
// overlapping candidate I/O regions (§4.2, Fig. 9 studies this switch).
func WithIOIntegration(on bool) Option {
	return func(o *Options) { o.DisableIOIntegration = !on }
}

// WithDummyLB enables or disables the envelope-based dummy-lower-bound
// optimisation (§4.2.2).
func WithDummyLB(on bool) Option {
	return func(o *Options) { o.DisableDummyLB = !on }
}

// literalFraction maps a literal fraction onto the struct encoding, where 0
// is the unset marker and negative values mean a literal 0.
func literalFraction(v float64) float64 {
	if v == 0 {
		return -1
	}
	return v
}
