package thynvm

import (
	"thynvm/internal/alloc"
	"thynvm/internal/kv"
)

// KVArena is the allocator backing a key-value store's nodes and values.
// Its bookkeeping is application state: serialize it into the checkpointed
// program state (System.SetProgramState) and restore it after recovery so
// the store can resume exactly at the recovered epoch boundary.
type KVArena struct {
	arena *alloc.Arena
}

func newArena(base, size uint64) (*KVArena, error) {
	a, err := alloc.New(base, size)
	if err != nil {
		return nil, err
	}
	return &KVArena{arena: a}, nil
}

// Serialize captures the arena state for checkpointing.
func (a *KVArena) Serialize() []byte { return a.arena.Serialize() }

// RestoreArena rebuilds an arena from Serialize output.
func RestoreArena(b []byte) (*KVArena, error) {
	ar, err := alloc.Restore(b)
	if err != nil {
		return nil, err
	}
	return &KVArena{arena: ar}, nil
}

// RunKVMix executes a deterministic search/insert/delete transaction mix
// against a store (see internal/kv.RunMix): ops transactions with values of
// valSize bytes over a key space of the given size.
func RunKVMix(st KVStore, ops, valSize int, keys uint64, seed int64) (executed uint64, err error) {
	stats, err := kv.RunMix(st, kv.DefaultMix, ops, valSize, keys, seed)
	if err != nil {
		return 0, err
	}
	return stats.ExecutedOperations, nil
}
