package resultcache

import (
	"context"
	"testing"

	"roadpart/internal/obs"
)

func events(op, result string) uint64 {
	return obs.Default().Counter(EventsFamily, "", "op", op, "result", result).Value()
}

// TestAliasFindsItsEntry: an alias recorded for a resident entry finds
// it, counts hit and alias, and is the only alias the entry keeps.
func TestAliasFindsItsEntry(t *testing.T) {
	c := newCache(t, 1<<20)
	key := Key{Op: OpPartition, Sum: 1}
	c.Put(key, []byte("body"))
	a, b := c.Alias(OpPartition, []byte(`{"k":3}`)), c.Alias(OpPartition, []byte(`{ "k":3}`))
	if a == b || a != c.Alias(OpPartition, []byte(`{"k":3}`)) {
		t.Fatal("Alias is not a function of the bytes")
	}
	if _, ok := c.Aliased(a); ok {
		t.Fatal("an alias never recorded was found")
	}
	c.SetAlias(key, a)
	if got, ok := c.Aliased(a); !ok || got != key {
		t.Fatalf("Aliased = %v, %v; want %v", got, ok, key)
	}
	hits, aliases := events(OpPartition, "hit"), events(OpPartition, "alias")
	if body, ok := c.GetAlias(a); !ok || string(body) != "body" {
		t.Fatalf("GetAlias = %q, %v", body, ok)
	}
	if events(OpPartition, "hit")-hits != 1 || events(OpPartition, "alias")-aliases != 1 {
		t.Fatal("an alias hit must count one hit and one alias")
	}
	c.SetAlias(key, b)
	if _, ok := c.Aliased(a); ok {
		t.Fatal("the replaced alias still finds the entry")
	}
	if got, ok := c.Aliased(b); !ok || got != key {
		t.Fatal("the new alias does not find the entry")
	}
}

// TestAliasRefusesMismatches: an alias of another op, the zero alias and
// an alias for a key that is not resident are never recorded.
func TestAliasRefusesMismatches(t *testing.T) {
	c := newCache(t, 1<<20)
	key := Key{Op: OpPartition, Sum: 1}
	c.Put(key, []byte("body"))
	raw := []byte(`{"network":{}}`)
	c.SetAlias(key, c.Alias(OpSweep, raw))
	if _, ok := c.Aliased(c.Alias(OpSweep, raw)); ok {
		t.Fatal("a sweep alias was recorded on a partition entry")
	}
	c.SetAlias(key, Alias{})
	if _, ok := c.Aliased(Alias{}); ok {
		t.Fatal("the zero alias was recorded")
	}
	c.SetAlias(Key{Op: OpPartition, Sum: 2}, c.Alias(OpPartition, raw))
	if _, ok := c.Aliased(c.Alias(OpPartition, raw)); ok {
		t.Fatal("an alias was recorded for a key that is not resident")
	}
}

// TestAliasLeavesWithEntry: eviction and tag invalidation drop the
// entry's alias; an alias moved to another entry survives the first
// entry's eviction.
func TestAliasLeavesWithEntry(t *testing.T) {
	c := newCache(t, 2*(100+entryOverhead))
	k1, k2, k3 := Key{Op: OpSweep, Sum: 1}, Key{Op: OpSweep, Sum: 2}, Key{Op: OpSweep, Sum: 3}
	a1, a2 := c.Alias(OpSweep, []byte("one")), c.Alias(OpSweep, []byte("two"))
	c.Put(k1, make([]byte, 100))
	c.Put(k2, make([]byte, 100))
	c.SetAlias(k1, a1)
	c.SetAlias(k1, a2)
	c.SetAlias(k2, a2) // the same bytes now resolve to k2
	if got, ok := c.Aliased(a2); !ok || got != k2 {
		t.Fatal("the moved alias does not find its new entry")
	}
	c.SetAlias(k1, a1)
	c.Put(k3, make([]byte, 100)) // evicts k1, the least recent
	if _, ok := c.Aliased(a1); ok {
		t.Fatal("an evicted entry's alias survived")
	}
	if got, ok := c.Aliased(a2); !ok || got != k2 {
		t.Fatal("evicting the alias's former entry dropped it")
	}

	tag := Tag(1, 2)
	c = newCache(t, 1<<20)
	k4 := Key{Op: OpPartition, Sum: 4}
	if _, _, err := c.GetOrCompute(context.Background(), k4, tag, body("x")); err != nil {
		t.Fatal(err)
	}
	a4 := c.Alias(OpPartition, []byte("four"))
	c.SetAlias(k4, a4)
	c.InvalidateTag(tag)
	if _, ok := c.Aliased(a4); ok {
		t.Fatal("an invalidated entry's alias survived")
	}
	if _, ok := c.GetAlias(a4); ok {
		t.Fatal("GetAlias served an invalidated entry")
	}
	if len(c.aliases) != 0 {
		t.Fatalf("%d aliases indexed in an empty cache", len(c.aliases))
	}
}
