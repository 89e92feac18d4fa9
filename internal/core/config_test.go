package core

import (
	"testing"

	"fmt"

	"dsmtx/internal/pipeline"
	"dsmtx/internal/platform"
	"dsmtx/internal/trace"
)

// The net backend narrows the configuration space: platforms are injected
// by the orchestration layer. Every rejection must name the offending field.
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
// platform and a tracer (observability is
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
