package core

import (
	"testing"

	"fmt"

	"dsmtx/internal/faults"
	"dsmtx/internal/pipeline"
	"dsmtx/internal/platform"
	"dsmtx/internal/sim"
	"dsmtx/internal/trace"
)

// The commit-shard knob grows Validate's surface; every rejection must name
// the offending field so a bad configuration is diagnosable from the
// message alone.
func TestValidateCommitShardErrors(t *testing.T) {
	cases := []struct {
		name  string
		cores int
		tune  func(cfg *Config)
		want  string
	}{
		{
			name:  "negative shard count",
			cores: 12,
			tune:  func(cfg *Config) { cfg.CommitShards = -1 },
			want:  "core: Config.CommitShards = -1, need >= 0",
		},
		{
			name:  "vote tag space exhausted",
			cores: 96,
			tune:  func(cfg *Config) { cfg.CommitShards = 61 },
			want:  "core: Config.CommitShards = 61 exhausts the control tag space (max 60)",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := smallConfig(tc.cores, pipeline.SpecDOALL())
			tc.tune(&cfg)
			err := cfg.Validate()
			if err == nil {
				t.Fatal("Validate accepted the configuration")
			}
			if err.Error() != tc.want {
				t.Fatalf("Validate error:\n  got  %q\n  want %q", err.Error(), tc.want)
			}
		})
	}
}

// The net backend narrows the configuration space: platforms are injected
// by the orchestration layer, fault injection stays vtime-only, and the
// commit pipeline cannot shard across processes. Every rejection must name
// the offending field.
func TestValidateNetBackendErrors(t *testing.T) {
	netPlat := func(int) (platform.Platform, error) {
		return nil, fmt.Errorf("unused: validation-only factory")
	}
	cases := []struct {
		name  string
		cores int
		tune  func(cfg *Config)
		want  string
	}{
		{
			name:  "net needs an injected platform",
			cores: 12,
			tune:  func(cfg *Config) { cfg.Backend = BackendNet },
			want:  "core: Config.Platform: the net backend needs an injected platform factory (run through internal/netrun or dsmtxrun -backend net)",
		},
		{
			name:  "commit shards cannot cross processes",
			cores: 12,
			tune: func(cfg *Config) {
				cfg.Backend = BackendNet
				cfg.Platform = netPlat
				cfg.CommitShards = 2
			},
			want: "core: Config.CommitShards = 2: commit shards share an in-process image arena; unsupported on the net backend",
		},
		{
			name:  "faults are vtime-only on net",
			cores: 12,
			tune: func(cfg *Config) {
				cfg.Backend = BackendNet
				cfg.Platform = netPlat
				cfg.Faults = &faults.Plan{Stragglers: []faults.Straggler{{Rank: 1, From: 0, Dur: sim.Millisecond, Factor: 2}}}
			},
			want: "core: Config.Faults: fault injection is built on the virtual-time kernel; unsupported on the net backend",
		},
		{
			name:  "faults are vtime-only on host",
			cores: 12,
			tune: func(cfg *Config) {
				cfg.Backend = BackendHost
				cfg.Faults = &faults.Plan{Stragglers: []faults.Straggler{{Rank: 1, From: 0, Dur: sim.Millisecond, Factor: 2}}}
			},
			want: "core: Config.Faults: fault injection is built on the virtual-time kernel; unsupported on the host backend",
		},
		{
			name:  "injected platform is net-only",
			cores: 12,
			tune:  func(cfg *Config) { cfg.Platform = netPlat },
			want:  "core: Config.Platform: injected platforms are a net-backend feature (the vtime backend builds its own)",
		},
		{
			name:  "injected platform is net-only on host",
			cores: 12,
			tune: func(cfg *Config) {
				cfg.Backend = BackendHost
				cfg.Platform = netPlat
			},
			want: "core: Config.Platform: injected platforms are a net-backend feature (the host backend builds its own)",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := smallConfig(tc.cores, pipeline.SpecDOALL())
			tc.tune(&cfg)
			// Through NewSystem, which runs Validate and is alone in needing
			// the platform a net configuration must carry.
			_, err := NewSystem(cfg, &misuseProg{}, nil)
			if err == nil {
				t.Fatal("NewSystem accepted the configuration")
			}
			if err.Error() != tc.want {
				t.Fatalf("NewSystem error:\n  got  %q\n  want %q", err.Error(), tc.want)
			}
		})
	}
}

// The net backend's supported envelope validates cleanly: an injected
// platform with default shards and a tracer (observability is
// backend-agnostic).
func TestValidateNetBackendAccepts(t *testing.T) {
	cfg := smallConfig(16, pipeline.SpecDOALL())
	cfg.Backend = BackendNet
	cfg.Platform = func(int) (platform.Platform, error) { return nil, nil }
	cfg.Tracer = trace.New()
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
}

// A value past the last backend renders as itself, not as a backend it is
// not (dsmtxrun's TestUsageNamesEveryBackend round-trips the known ones).
func TestBackendString(t *testing.T) {
	if got := Backend(3).String(); got != "backend(3)" {
		t.Errorf("Backend(3).String() = %q, want backend(3)", got)
	}
}

// Legal shard counts — including 0, the "default to 1" spelling — validate.
func TestValidateCommitShardCounts(t *testing.T) {
	for _, shards := range []int{0, 1, 2, 4, 8} {
		cfg := smallConfig(16, pipeline.SpecDOALL())
		cfg.CommitShards = shards
		if err := cfg.Validate(); err != nil {
			t.Fatalf("CommitShards=%d: %v", shards, err)
		}
	}
}
