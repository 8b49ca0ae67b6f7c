package engine

import "islands/internal/storage"

// TableDef returns the definition of table id, or nil if the instance has
// none.
func (in *Instance) TableDef(id storage.TableID) *storage.Table {
	if ts := in.table(id); ts != nil {
		return ts.def
	}
	return nil
}
