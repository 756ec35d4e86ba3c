package loader

import (
	"dropscope/internal/rib"
	"dropscope/internal/ribsnap"
)

// persist writes ix as the generation for digest, cut into Shards
// pieces — one when Shards <= 1, which is ix.Frozen() itself, so a
// monolith's shard-0.ribsnap is byte for byte the whole-index snapshot.
func persist(st *ribsnap.Store, o Options, ix *rib.Index, digest [32]byte, counts []ribsnap.CollectorCount, lin *ribsnap.Lineage) error {
	fs, err := ix.FrozenShards(o.Shards, o.Workers)
	if err != nil {
		return err
	}
	return st.WriteShardsLineage(fs, o.Window, digest, counts, o.Workers, lin)
}

// base is the previous generation as delta.Build needs it. close must
// not run until the merged index has been persisted: the merge aliases
// the base's storage.
type base struct {
	ss   *ribsnap.ShardSet
	rels []rib.ShardRelease
}

// previous opens the store's promoted generation — the one a delta load
// extends — nil when there is none that opens. Residency is unbounded:
// the merge walks every shard anyway.
func previous(st *ribsnap.Store) *base {
	prev, ok := st.Promoted()
	if !ok {
		return nil
	}
	ss, err := st.LoadShards(prev, 0)
	if err != nil {
		return nil
	}
	return &base{ss: ss}
}

// frozen maps the shards, deferred until the merge is certain to run,
// and concatenates them back into one frozen view.
func (b *base) frozen() (*rib.Frozen, error) {
	fs := make([]*rib.Frozen, b.ss.NumShards())
	for i := range fs {
		ix, rel, err := b.ss.AcquireIndex(i)
		if err != nil {
			return nil, err
		}
		b.rels = append(b.rels, rel)
		if fs[i], err = ix.Frozen(); err != nil {
			return nil, err
		}
	}
	return rib.ConcatFrozen(fs)
}

func (b *base) close() {
	for _, rel := range b.rels {
		rel.Release()
	}
	b.ss.Close()
}
