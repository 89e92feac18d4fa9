package expsched

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
)

// Cache is a content-addressed on-disk result store. A key is the SHA-256
// of the cache fingerprint (a digest of everything that can change a
// result — simulator sources, record schema) concatenated with the
// canonical JSON of a point's full specification, so any change to either
// silently addresses fresh entries and stale ones are simply never read
// again. Entries are JSON files named by their key under a two-level
// fan-out directory; writes go through a temp file and rename, so
// concurrent writers of the same (deterministic) entry race benignly.
type Cache struct {
	dir         string
	fingerprint string
}

// OpenCache prepares a cache rooted at dir. The directory is created if
// missing; fingerprint scopes every key (see Cache).
func OpenCache(dir, fingerprint string) (*Cache, error) {
	if dir == "" {
		return nil, fmt.Errorf("expsched: empty cache dir")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("expsched: cache dir: %w", err)
	}
	return &Cache{dir: dir, fingerprint: fingerprint}, nil
}

// entry is the on-disk layout: the spec is echoed for debuggability (the
// key alone is opaque), the value is kept raw so Get can decode it into
// the caller's type.
type entry struct {
	Fingerprint string          `json:"fingerprint"`
	Spec        json.RawMessage `json:"spec"`
	Value       json.RawMessage `json:"value"`
}

// Key derives the content address for a point specification. spec must
// marshal deterministically (structs do: field order is fixed).
func (c *Cache) Key(spec any) (string, error) {
	js, err := json.Marshal(spec)
	if err != nil {
		return "", fmt.Errorf("expsched: marshal spec: %w", err)
	}
	h := sha256.New()
	h.Write([]byte(c.fingerprint))
	h.Write([]byte{'\n'})
	h.Write(js)
	return hex.EncodeToString(h.Sum(nil)), nil
}

func (c *Cache) path(key string) string {
	return filepath.Join(c.dir, key[:2], key+".json")
}

// Get looks a spec up and, on a hit, decodes the stored value into v
// (a pointer). Unreadable or corrupt entries count as misses: the cache
// must never be able to fail a run that would succeed without it. A
// truncated or garbled file is additionally deleted, so the recompute's
// Put rewrites it instead of leaving the corruption to be re-parsed on
// every future lookup. (A fingerprint mismatch is not corruption — the
// entry belongs to another checkout state — so it is left in place.)
func (c *Cache) Get(spec, v any) (bool, error) {
	key, err := c.Key(spec)
	if err != nil {
		return false, err
	}
	path := c.path(key)
	raw, err := os.ReadFile(path)
	if err != nil {
		return false, nil
	}
	var e entry
	if err := json.Unmarshal(raw, &e); err != nil {
		os.Remove(path)
		return false, nil
	}
	if e.Fingerprint != c.fingerprint {
		return false, nil
	}
	if err := json.Unmarshal(e.Value, v); err != nil {
		os.Remove(path)
		return false, nil
	}
	return true, nil
}

// CacheStats is the cache's on-disk footprint.
type CacheStats struct {
	Entries int   `json:"entries"`
	Bytes   int64 `json:"bytes"`
}

// Stats walks the cache directory and reports entry count and total size
// (load harnesses report cache growth from it). Files still being written
// (temp files) are not counted.
func (c *Cache) Stats() (CacheStats, error) {
	var st CacheStats
	err := filepath.WalkDir(c.dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() || filepath.Ext(path) != ".json" {
			return err
		}
		info, err := d.Info()
		if err != nil {
			// Racing a concurrent delete is benign.
			return nil
		}
		st.Entries++
		st.Bytes += info.Size()
		return nil
	})
	return st, err
}

// Put stores a spec's value. The write is atomic (temp file + rename) so
// a reader never observes a partial entry.
func (c *Cache) Put(spec, v any) error {
	key, err := c.Key(spec)
	if err != nil {
		return err
	}
	specJS, err := json.Marshal(spec)
	if err != nil {
		return fmt.Errorf("expsched: marshal spec: %w", err)
	}
	valJS, err := json.Marshal(v)
	if err != nil {
		return fmt.Errorf("expsched: marshal value: %w", err)
	}
	out, err := json.MarshalIndent(entry{Fingerprint: c.fingerprint, Spec: specJS, Value: valJS}, "", "  ")
	if err != nil {
		return err
	}
	path := c.path(key)
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("expsched: cache subdir: %w", err)
	}
	tmp, err := os.CreateTemp(filepath.Dir(path), key+".tmp*")
	if err != nil {
		return fmt.Errorf("expsched: cache write: %w", err)
	}
	if _, err := tmp.Write(append(out, '\n')); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return fmt.Errorf("expsched: cache write: %w", err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("expsched: cache write: %w", err)
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("expsched: cache write: %w", err)
	}
	return nil
}
