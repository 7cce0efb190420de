package resultcache

import (
	"context"
	"os"
	"path/filepath"
	"testing"
)

func TestTagNeverZeroAndDistinct(t *testing.T) {
	if Tag(0, 0) == 0 || Tag(1, 2) == 0 {
		t.Fatal("Tag produced the reserved untagged value")
	}
	if Tag(1, 2) == Tag(2, 1) {
		t.Fatal("Tag is insensitive to argument order")
	}
	if Tag(1, 2) == Tag(1, 3) {
		t.Fatal("Tag ignores the density fingerprint")
	}
}

func TestInvalidateTagDropsOnlyItsGroup(t *testing.T) {
	c := newCache(t, 1<<20)
	ctx := context.Background()
	old, fresh := Tag(7, 100), Tag(7, 101)
	keys := []Key{{Op: "partition", Sum: 1}, {Op: "sweep", Sum: 2}}
	for _, k := range keys {
		if _, _, err := c.GetOrCompute(ctx, k, old, body("old")); err != nil {
			t.Fatal(err)
		}
	}
	keep := Key{Op: "partition", Sum: 3}
	if _, _, err := c.GetOrCompute(ctx, keep, fresh, body("fresh")); err != nil {
		t.Fatal(err)
	}

	if n := c.InvalidateTag(old); n != 2 {
		t.Fatalf("InvalidateTag dropped %d entries, want 2", n)
	}
	// A hit on an invalidated key after its density generation was
	// superseded is exactly the staleness bug the tags exist to prevent.
	for _, k := range keys {
		if _, ok := c.Get(k); ok {
			t.Fatalf("stale entry %s survived invalidation", k)
		}
	}
	if _, ok := c.Get(keep); !ok {
		t.Fatal("entry from the live generation was dropped")
	}
	if c.Len() != 1 {
		t.Fatalf("Len = %d after invalidation, want 1", c.Len())
	}
	if n := c.InvalidateTag(old); n != 0 {
		t.Fatalf("second InvalidateTag dropped %d entries, want 0", n)
	}
	if c.InvalidateTag(0) != 0 {
		t.Fatal("InvalidateTag(0) must be a no-op")
	}
}

func TestInvalidateTagRemovesSnapshots(t *testing.T) {
	dir := t.TempDir()
	c, err := New(Config{MaxBytes: 1 << 20, Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	tag := Tag(3, 4)
	key := Key{Op: "partition", Sum: 42}
	if _, _, err := c.GetOrCompute(context.Background(), key, tag, body(`{"x":1}`)); err != nil {
		t.Fatal(err)
	}
	snap := filepath.Join(dir, key.String()+".json")
	if _, err := os.Stat(snap); err != nil {
		t.Fatalf("snapshot not persisted: %v", err)
	}
	if n := c.InvalidateTag(tag); n != 1 {
		t.Fatalf("dropped %d, want 1", n)
	}
	if _, err := os.Stat(snap); !os.IsNotExist(err) {
		t.Fatalf("snapshot survived invalidation: %v", err)
	}
}

func TestEvictionCleansTagIndex(t *testing.T) {
	// Budget fits one small entry (plus overhead); the second insert
	// evicts the first, which must also leave its tag group.
	c := newCache(t, entryOverhead+8)
	ctx := context.Background()
	tag := Tag(9, 9)
	a, b := Key{Op: "partition", Sum: 10}, Key{Op: "partition", Sum: 11}
	if _, _, err := c.GetOrCompute(ctx, a, tag, body("aaaa")); err != nil {
		t.Fatal(err)
	}
	if _, _, err := c.GetOrCompute(ctx, b, tag, body("bbbb")); err != nil {
		t.Fatal(err)
	}
	if _, ok := c.Get(a); ok {
		t.Fatal("first entry should have been evicted")
	}
	// Only the resident entry counts toward the group now.
	if n := c.InvalidateTag(tag); n != 1 {
		t.Fatalf("InvalidateTag dropped %d entries, want 1 (evicted entry must leave the index)", n)
	}
}

func TestStoreRemoveMissingIsNoError(t *testing.T) {
	st, err := OpenStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Remove(Key{Op: "partition", Sum: 99}); err != nil {
		t.Fatalf("removing a missing snapshot errored: %v", err)
	}
}
