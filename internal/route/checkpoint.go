package route

import (
	"fmt"
	"math"
	"slices"
)

// DynState returns the DB's mutable routing state — per-bin wire usage,
// negotiated-congestion history cost and F2F bump usage — as read-only
// views of the live arrays: the caller encodes or measures them and
// must neither modify nor keep them past the DB's next edit. A DB that
// has not negotiated holds no history plane: hist is nil, and stands for
// len(usage) zeros. Together with the Result these fully determine the
// DB's behaviour in downstream optimization (congestion cost reads both
// usage and history), so a checkpoint that restores them resumes
// bit-identically.
func (db *DB) DynState() (usage []int32, hist []float32, f2fUse []int32) {
	return db.usage, db.hist, db.f2fUse
}

// CheckDynState reports whether state captured by DynState on an
// identically-constructed DB has this DB's shape, without touching it: a
// history plane the usage plane's size, as encoded.
func (db *DB) CheckDynState(usage []int32, hist []float32, f2fUse []int32) error {
	if len(usage) != len(db.usage) || len(hist) != len(db.usage) || len(f2fUse) != len(db.f2fUse) {
		return fmt.Errorf("route: dyn state shape %d/%d/%d, want %d/%d/%d",
			len(usage), len(hist), len(f2fUse), len(db.usage), len(db.usage), len(db.f2fUse))
	}
	return nil
}

// SetDynState installs usage, history and F2F usage captured by
// DynState. The shape is validated (CheckDynState) before any mutation,
// so a corrupt snapshot leaves the DB untouched. A history of zeros
// installed on a DB without a history plane creates none. Every net is
// unsettled after it: the stamps did not see the state arrive.
func (db *DB) SetDynState(usage []int32, hist []float32, f2fUse []int32) error {
	if err := db.CheckDynState(usage, hist, f2fUse); err != nil {
		return err
	}
	db.resetStamps()
	copy(db.usage, usage)
	if db.hist != nil || slices.ContainsFunc(hist, func(h float32) bool { return math.Float32bits(h) != 0 }) {
		copy(db.history(), hist)
	}
	copy(db.f2fUse, f2fUse)
	return nil
}
