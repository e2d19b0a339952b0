package testutil

import (
	"repro/internal/byteslice"
	"repro/internal/column"
)

// Column decodes a table column from the ByteSlice and error that
// Table.ByteSlice returns: Column(tbl.ByteSlice(name)). A table keeps
// no other copy of its codes.
func Column(bs *byteslice.BS, err error) (*column.Column, error) {
	if err != nil {
		return nil, err
	}
	codes := make([]uint64, bs.N)
	bs.Decode(codes, 0)
	return column.FromCodes("", bs.Width, codes), nil
}
