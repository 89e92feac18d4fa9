package engine

import (
	"fmt"
	"io"
	"os"
	"path/filepath"

	"dsmtx/internal/expsched"
)

// simSourceDirs are the packages whose sources determine job results. The
// cache fingerprint covers exactly these: editing anything else
// (rendering, CLI, docs, tests) keeps cached results valid, while any
// kernel/runtime/workload change — a net daemon's config build and wire
// codec included — invalidates every entry.
var simSourceDirs = []string{
	"internal/cluster", "internal/core", "internal/engine",
	"internal/job", "internal/mem", "internal/mpi", "internal/netrun",
	"internal/pipeline", "internal/platform", "internal/queue", "internal/sim",
	"internal/uva", "internal/wire", "internal/workloads",
}

// recordSchema versions the cached Result layout; bump it when the record
// changes shape so old entries miss instead of decoding into zeros.
// (record-v3 carried Bytes beside Traffic.Bytes; record-v4 had no SubTXs.)
const recordSchema = "record-v5"

// OpenResultCache opens the content-addressed result store at dir, scoped
// to this checkout's simulator sources; an empty dir means no cache. A
// broken cache must never fail a run that would work without it, so any
// error is reported on warn and the result is nil (caching disabled).
func OpenResultCache(dir string, warn io.Writer) *expsched.Cache {
	if dir == "" {
		return nil
	}
	var cache *expsched.Cache
	fp, err := resultFingerprint(recordSchema)
	if err == nil {
		cache, err = expsched.OpenCache(dir, fp)
	}
	if err != nil {
		fmt.Fprintf(warn, "engine: result cache disabled: %v\n", err)
	}
	return cache
}

// resultFingerprint computes the cache fingerprint for this checkout: the
// record schema plus a digest of the simulation sources (located by
// walking up from the working directory to go.mod). Outside a checkout it
// falls back to digesting the running executable — coarser, but still
// sound: a rebuild can only invalidate, never falsely hit.
func resultFingerprint(schema string) (string, error) {
	if root, ok := moduleRoot(); ok {
		dirs := make([]string, len(simSourceDirs))
		for i, d := range simSourceDirs {
			dirs[i] = filepath.Join(root, filepath.FromSlash(d))
		}
		fp, err := expsched.SourceFingerprint(dirs...)
		if err != nil {
			return "", err
		}
		return schema + ":src:" + fp, nil
	}
	fp, err := expsched.ExecutableFingerprint()
	if err != nil {
		return "", err
	}
	return schema + ":exe:" + fp, nil
}

// moduleRoot finds the dsmtx checkout by walking up from the working
// directory until a go.mod appears.
func moduleRoot() (string, bool) {
	dir, err := os.Getwd()
	if err != nil {
		return "", false
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, true
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", false
		}
		dir = parent
	}
}
