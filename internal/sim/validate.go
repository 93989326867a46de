package sim

import (
	"fmt"

	"asymfence/internal/cpu"
)

// ConfigError is the typed error Config.Validate returns for a
// nonsensical machine configuration: which field is wrong and why.
type ConfigError struct {
	// Field names the offending Config field.
	Field string
	// Reason states why the value is rejected.
	Reason string
}

// Error renders the rejection.
func (e *ConfigError) Error() string {
	return fmt.Sprintf("sim: invalid config: %s: %s", e.Field, e.Reason)
}

// Validate checks the configuration for combinations that would panic or
// silently misbehave, returning a typed *ConfigError for the first
// problem found. Zero fields other than NCores are validated at their
// Table-2 defaults (the values applyDefaults would substitute); an
// explicit NCores is required to be positive because the machine's
// directory interleaving, mesh layout and sharer bitmasks are all sized
// by it. Run/RunCtx/RunForCtx call Validate before stepping, and the CLI
// calls it on flag parsing.
func (c Config) Validate() error {
	if c.NCores <= 0 {
		return &ConfigError{Field: "NCores", Reason: fmt.Sprintf("must be positive, got %d", c.NCores)}
	}
	if c.NCores > 64 {
		return &ConfigError{Field: "NCores", Reason: fmt.Sprintf(
			"at most 64 cores/banks supported (directory sharer bitmask), got %d", c.NCores)}
	}
	if c.NCores&(c.NCores-1) != 0 {
		return &ConfigError{Field: "NCores", Reason: fmt.Sprintf(
			"core/directory-bank count must be a power of two, got %d", c.NCores)}
	}
	d := c
	d.applyDefaults()
	wpt := d.WPlusTimeout
	if wpt == 0 {
		wpt = cpu.DefaultWPlusTimeout
	}
	if wpt < 0 {
		return &ConfigError{Field: "WPlusTimeout", Reason: fmt.Sprintf("must be positive, got %d", wpt)}
	}
	if d.WatchdogCycles < wpt {
		return &ConfigError{Field: "WatchdogCycles", Reason: fmt.Sprintf(
			"watchdog (%d) below the W+ recovery timeout (%d): recoveries would be reported as deadlocks",
			d.WatchdogCycles, wpt)}
	}
	if d.MaxCycles < 0 {
		return &ConfigError{Field: "MaxCycles", Reason: fmt.Sprintf("must be positive, got %d", d.MaxCycles)}
	}
	if d.SampleInterval < 0 {
		return &ConfigError{Field: "SampleInterval", Reason: fmt.Sprintf("must not be negative, got %d", d.SampleInterval)}
	}
	if d.SampleInterval > 0 && d.MaxCycles < d.SampleInterval {
		return &ConfigError{Field: "SampleInterval", Reason: fmt.Sprintf(
			"sampler interval (%d) exceeds the cycle horizon (%d): no sample would ever be taken",
			d.SampleInterval, d.MaxCycles)}
	}
	return nil
}
