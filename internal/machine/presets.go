package machine

import (
	"fmt"
	"sort"

	"dynprof/internal/des"
	"dynprof/internal/fault"
)

// The preset table maps short stable identifiers to the builders of the
// paper's two platforms. New is the package's front door: look a preset
// up by id, then refine it with functional options.
var (
	presets = map[string]func() *Config{
		"ibm-power3": ibmPower3,
		"ia32-linux": ia32Linux,
	}
	aliases = map[string]string{"ibm": "ibm-power3", "ia32": "ia32-linux"}
)

// New builds a machine from a preset refined by options:
//
//	mach, err := machine.New("ibm-power3",
//		machine.WithNodes(64),
//		machine.WithFaults(plan))
//
// The short aliases "ibm" and "ia32" name the two paper platforms.
// Unknown preset ids fail with the preset ids listed. Options apply in
// order to a fresh copy of the preset.
func New(id string, opts ...Option) (*Config, error) {
	build, ok := presets[id]
	if !ok {
		build, ok = presets[aliases[id]]
	}
	if !ok {
		return nil, fmt.Errorf("machine: unknown preset %q (have %v)", id, Presets())
	}
	cfg := build()
	for _, opt := range opts {
		opt(cfg)
	}
	if err := validate(cfg); err != nil {
		return nil, err
	}
	return cfg, nil
}

// MustNew is New for static configurations; it panics on error.
func MustNew(id string, opts ...Option) *Config {
	cfg, err := New(id, opts...)
	if err != nil {
		panic(err)
	}
	return cfg
}

// Presets lists the preset ids in sorted order.
func Presets() []string {
	ids := make([]string, 0, len(presets))
	for id := range presets {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	return ids
}

// validate rejects configurations no simulation could run on.
func validate(c *Config) error {
	if c.Nodes <= 0 || c.CPUsPerNode <= 0 {
		return fmt.Errorf("machine: %s: needs at least one node and one CPU per node (got %dx%d)", c.Name, c.Nodes, c.CPUsPerNode)
	}
	if c.ClockHz <= 0 {
		return fmt.Errorf("machine: %s: clock rate %v Hz is not positive", c.Name, c.ClockHz)
	}
	if err := c.Faults.Validate(); err != nil {
		return fmt.Errorf("machine: %s: %w", c.Name, err)
	}
	return nil
}

// ibmPower3 is the paper's primary platform: 144 SMP nodes, each with
// eight 375 MHz Power3 processors and 4 GB of shared memory, connected by
// IBM Colony switches, running AIX 5.1 with POE.
func ibmPower3() *Config {
	return &Config{
		Name:        "IBM Power3 SMP cluster (Colony)",
		Nodes:       144,
		CPUsPerNode: 8,
		ClockHz:     375e6,
		Net: Network{
			Latency:      21 * des.Microsecond,
			SendOverhead: 3 * des.Microsecond,
			RecvOverhead: 3 * des.Microsecond,
			Bandwidth:    350e6,
			ShmLatency:   2 * des.Microsecond,
			ShmBandwidth: 1200e6,
		},
		DaemonLatency: 220 * des.Microsecond,
		DaemonJitter:  0.35,
	}
}

// ia32Linux is the secondary platform of Section 5: a 16-node Intel
// Pentium III IA32 Linux cluster (Figure 8c).
func ia32Linux() *Config {
	return &Config{
		Name:        "Intel IA32 Linux cluster (Pentium III)",
		Nodes:       16,
		CPUsPerNode: 1,
		ClockHz:     800e6,
		Net: Network{
			Latency:      55 * des.Microsecond,
			SendOverhead: 6 * des.Microsecond,
			RecvOverhead: 6 * des.Microsecond,
			Bandwidth:    90e6,
			ShmLatency:   2 * des.Microsecond,
			ShmBandwidth: 800e6,
		},
		DaemonLatency: 300 * des.Microsecond,
		DaemonJitter:  0.35,
	}
}

// Option refines a preset configuration inside New.
type Option func(*Config)

// WithName overrides the display name. The name feeds every experiment
// spec's cache key, so modified presets should take a distinct name.
func WithName(name string) Option { return func(c *Config) { c.Name = name } }

// WithNodes resizes the cluster.
func WithNodes(n int) Option { return func(c *Config) { c.Nodes = n } }

// WithCPUsPerNode resizes each SMP node.
func WithCPUsPerNode(n int) Option { return func(c *Config) { c.CPUsPerNode = n } }

// WithClockHz changes the processor clock rate.
func WithClockHz(hz float64) Option { return func(c *Config) { c.ClockHz = hz } }

// WithNetwork replaces the interconnect model.
func WithNetwork(net Network) Option { return func(c *Config) { c.Net = net } }

// WithDaemonLatency changes the base control-message latency.
func WithDaemonLatency(d des.Time) Option { return func(c *Config) { c.DaemonLatency = d } }

// WithDaemonJitter changes the relative control-message jitter (0..1).
func WithDaemonJitter(f float64) Option { return func(c *Config) { c.DaemonJitter = f } }

// WithFaults attaches a deterministic fault plan. A zero plan leaves the
// machine fault-free (identical to not passing the option at all).
func WithFaults(plan *fault.Plan) Option {
	return func(c *Config) {
		if plan.IsZero() {
			c.Faults = nil
		} else {
			c.Faults = plan
		}
	}
}
