// Code generated by cmd/genspecialized; DO NOT EDIT.

package interp

import (
	"sti/internal/relation"
	"sti/internal/value"
)

// Specialized opcode block. Opcodes are laid out so that
// op = opBase + arity - 1, letting the tree generator compute them directly.
const (
	opInsertBT1 opcode = iota + opSpecializedBase
	opInsertBT2
	opInsertBT3
	opInsertBT4
	opInsertBT5
	opInsertBT6
	opInsertBT7
	opInsertBT8
	opInsertBT9
	opInsertBT10
	opInsertBT11
	opInsertBT12
	opInsertBT13
	opInsertBT14
	opInsertBT15
	opInsertBT16
	opExistsBT1
	opExistsBT2
	opExistsBT3
	opExistsBT4
	opExistsBT5
	opExistsBT6
	opExistsBT7
	opExistsBT8
	opExistsBT9
	opExistsBT10
	opExistsBT11
	opExistsBT12
	opExistsBT13
	opExistsBT14
	opExistsBT15
	opExistsBT16
	opScanBT1
	opScanBT2
	opScanBT3
	opScanBT4
	opScanBT5
	opScanBT6
	opScanBT7
	opScanBT8
	opScanBT9
	opScanBT10
	opScanBT11
	opScanBT12
	opScanBT13
	opScanBT14
	opScanBT15
	opScanBT16
	opIndexScanBT1
	opIndexScanBT2
	opIndexScanBT3
	opIndexScanBT4
	opIndexScanBT5
	opIndexScanBT6
	opIndexScanBT7
	opIndexScanBT8
	opIndexScanBT9
	opIndexScanBT10
	opIndexScanBT11
	opIndexScanBT12
	opIndexScanBT13
	opIndexScanBT14
	opIndexScanBT15
	opIndexScanBT16
	opChoiceBT1
	opChoiceBT2
	opChoiceBT3
	opChoiceBT4
	opChoiceBT5
	opChoiceBT6
	opChoiceBT7
	opChoiceBT8
	opChoiceBT9
	opChoiceBT10
	opChoiceBT11
	opChoiceBT12
	opChoiceBT13
	opChoiceBT14
	opChoiceBT15
	opChoiceBT16
	opIndexChoiceBT1
	opIndexChoiceBT2
	opIndexChoiceBT3
	opIndexChoiceBT4
	opIndexChoiceBT5
	opIndexChoiceBT6
	opIndexChoiceBT7
	opIndexChoiceBT8
	opIndexChoiceBT9
	opIndexChoiceBT10
	opIndexChoiceBT11
	opIndexChoiceBT12
	opIndexChoiceBT13
	opIndexChoiceBT14
	opIndexChoiceBT15
	opIndexChoiceBT16
	opAggregateBT1
	opAggregateBT2
	opAggregateBT3
	opAggregateBT4
	opAggregateBT5
	opAggregateBT6
	opAggregateBT7
	opAggregateBT8
	opAggregateBT9
	opAggregateBT10
	opAggregateBT11
	opAggregateBT12
	opAggregateBT13
	opAggregateBT14
	opAggregateBT15
	opAggregateBT16
	opIndexAggregateBT1
	opIndexAggregateBT2
	opIndexAggregateBT3
	opIndexAggregateBT4
	opIndexAggregateBT5
	opIndexAggregateBT6
	opIndexAggregateBT7
	opIndexAggregateBT8
	opIndexAggregateBT9
	opIndexAggregateBT10
	opIndexAggregateBT11
	opIndexAggregateBT12
	opIndexAggregateBT13
	opIndexAggregateBT14
	opIndexAggregateBT15
	opIndexAggregateBT16
)

// specializedOp maps a generic opcode and arity to its specialized form.
func specializedOp(generic opcode, arity int) (opcode, bool) {
	if arity < 1 || arity > relation.MaxArity {
		return 0, false
	}
	switch generic {
	case opInsert:
		return opInsertBT1 + opcode(arity-1), true
	case opExists:
		return opExistsBT1 + opcode(arity-1), true
	case opScan:
		return opScanBT1 + opcode(arity-1), true
	case opIndexScan:
		return opIndexScanBT1 + opcode(arity-1), true
	case opChoice:
		return opChoiceBT1 + opcode(arity-1), true
	case opIndexChoice:
		return opIndexChoiceBT1 + opcode(arity-1), true
	case opAggregate:
		return opAggregateBT1 + opcode(arity-1), true
	case opIndexAggregate:
		return opIndexAggregateBT1 + opcode(arity-1), true
	}
	return 0, false
}

// execSpecialized handles every specialized opcode. It is called from the
// interpreter's main switch; returns (result, handled).
func (ex *executor) execSpecialized(n *inode, ctx *context) (value.Value, bool) {
	switch n.op {
	case opInsertBT1:
		return evalInsertBT[relation.Tup1](ex, n, ctx), true
	case opInsertBT2:
		return evalInsertBT[relation.Tup2](ex, n, ctx), true
	case opInsertBT3:
		return evalInsertBT[relation.Tup3](ex, n, ctx), true
	case opInsertBT4:
		return evalInsertBT[relation.Tup4](ex, n, ctx), true
	case opInsertBT5:
		return evalInsertBT[relation.Tup5](ex, n, ctx), true
	case opInsertBT6:
		return evalInsertBT[relation.Tup6](ex, n, ctx), true
	case opInsertBT7:
		return evalInsertBT[relation.Tup7](ex, n, ctx), true
	case opInsertBT8:
		return evalInsertBT[relation.Tup8](ex, n, ctx), true
	case opInsertBT9:
		return evalInsertBT[relation.Tup9](ex, n, ctx), true
	case opInsertBT10:
		return evalInsertBT[relation.Tup10](ex, n, ctx), true
	case opInsertBT11:
		return evalInsertBT[relation.Tup11](ex, n, ctx), true
	case opInsertBT12:
		return evalInsertBT[relation.Tup12](ex, n, ctx), true
	case opInsertBT13:
		return evalInsertBT[relation.Tup13](ex, n, ctx), true
	case opInsertBT14:
		return evalInsertBT[relation.Tup14](ex, n, ctx), true
	case opInsertBT15:
		return evalInsertBT[relation.Tup15](ex, n, ctx), true
	case opInsertBT16:
		return evalInsertBT[relation.Tup16](ex, n, ctx), true
	case opExistsBT1:
		return evalExistsBT[relation.Tup1](ex, n, ctx), true
	case opExistsBT2:
		return evalExistsBT[relation.Tup2](ex, n, ctx), true
	case opExistsBT3:
		return evalExistsBT[relation.Tup3](ex, n, ctx), true
	case opExistsBT4:
		return evalExistsBT[relation.Tup4](ex, n, ctx), true
	case opExistsBT5:
		return evalExistsBT[relation.Tup5](ex, n, ctx), true
	case opExistsBT6:
		return evalExistsBT[relation.Tup6](ex, n, ctx), true
	case opExistsBT7:
		return evalExistsBT[relation.Tup7](ex, n, ctx), true
	case opExistsBT8:
		return evalExistsBT[relation.Tup8](ex, n, ctx), true
	case opExistsBT9:
		return evalExistsBT[relation.Tup9](ex, n, ctx), true
	case opExistsBT10:
		return evalExistsBT[relation.Tup10](ex, n, ctx), true
	case opExistsBT11:
		return evalExistsBT[relation.Tup11](ex, n, ctx), true
	case opExistsBT12:
		return evalExistsBT[relation.Tup12](ex, n, ctx), true
	case opExistsBT13:
		return evalExistsBT[relation.Tup13](ex, n, ctx), true
	case opExistsBT14:
		return evalExistsBT[relation.Tup14](ex, n, ctx), true
	case opExistsBT15:
		return evalExistsBT[relation.Tup15](ex, n, ctx), true
	case opExistsBT16:
		return evalExistsBT[relation.Tup16](ex, n, ctx), true
	case opScanBT1:
		return evalScanBT[relation.Tup1](ex, n, ctx), true
	case opScanBT2:
		return evalScanBT[relation.Tup2](ex, n, ctx), true
	case opScanBT3:
		return evalScanBT[relation.Tup3](ex, n, ctx), true
	case opScanBT4:
		return evalScanBT[relation.Tup4](ex, n, ctx), true
	case opScanBT5:
		return evalScanBT[relation.Tup5](ex, n, ctx), true
	case opScanBT6:
		return evalScanBT[relation.Tup6](ex, n, ctx), true
	case opScanBT7:
		return evalScanBT[relation.Tup7](ex, n, ctx), true
	case opScanBT8:
		return evalScanBT[relation.Tup8](ex, n, ctx), true
	case opScanBT9:
		return evalScanBT[relation.Tup9](ex, n, ctx), true
	case opScanBT10:
		return evalScanBT[relation.Tup10](ex, n, ctx), true
	case opScanBT11:
		return evalScanBT[relation.Tup11](ex, n, ctx), true
	case opScanBT12:
		return evalScanBT[relation.Tup12](ex, n, ctx), true
	case opScanBT13:
		return evalScanBT[relation.Tup13](ex, n, ctx), true
	case opScanBT14:
		return evalScanBT[relation.Tup14](ex, n, ctx), true
	case opScanBT15:
		return evalScanBT[relation.Tup15](ex, n, ctx), true
	case opScanBT16:
		return evalScanBT[relation.Tup16](ex, n, ctx), true
	case opIndexScanBT1:
		return evalIndexScanBT[relation.Tup1](ex, n, ctx), true
	case opIndexScanBT2:
		return evalIndexScanBT[relation.Tup2](ex, n, ctx), true
	case opIndexScanBT3:
		return evalIndexScanBT[relation.Tup3](ex, n, ctx), true
	case opIndexScanBT4:
		return evalIndexScanBT[relation.Tup4](ex, n, ctx), true
	case opIndexScanBT5:
		return evalIndexScanBT[relation.Tup5](ex, n, ctx), true
	case opIndexScanBT6:
		return evalIndexScanBT[relation.Tup6](ex, n, ctx), true
	case opIndexScanBT7:
		return evalIndexScanBT[relation.Tup7](ex, n, ctx), true
	case opIndexScanBT8:
		return evalIndexScanBT[relation.Tup8](ex, n, ctx), true
	case opIndexScanBT9:
		return evalIndexScanBT[relation.Tup9](ex, n, ctx), true
	case opIndexScanBT10:
		return evalIndexScanBT[relation.Tup10](ex, n, ctx), true
	case opIndexScanBT11:
		return evalIndexScanBT[relation.Tup11](ex, n, ctx), true
	case opIndexScanBT12:
		return evalIndexScanBT[relation.Tup12](ex, n, ctx), true
	case opIndexScanBT13:
		return evalIndexScanBT[relation.Tup13](ex, n, ctx), true
	case opIndexScanBT14:
		return evalIndexScanBT[relation.Tup14](ex, n, ctx), true
	case opIndexScanBT15:
		return evalIndexScanBT[relation.Tup15](ex, n, ctx), true
	case opIndexScanBT16:
		return evalIndexScanBT[relation.Tup16](ex, n, ctx), true
	case opChoiceBT1:
		return evalChoiceBT[relation.Tup1](ex, n, ctx), true
	case opChoiceBT2:
		return evalChoiceBT[relation.Tup2](ex, n, ctx), true
	case opChoiceBT3:
		return evalChoiceBT[relation.Tup3](ex, n, ctx), true
	case opChoiceBT4:
		return evalChoiceBT[relation.Tup4](ex, n, ctx), true
	case opChoiceBT5:
		return evalChoiceBT[relation.Tup5](ex, n, ctx), true
	case opChoiceBT6:
		return evalChoiceBT[relation.Tup6](ex, n, ctx), true
	case opChoiceBT7:
		return evalChoiceBT[relation.Tup7](ex, n, ctx), true
	case opChoiceBT8:
		return evalChoiceBT[relation.Tup8](ex, n, ctx), true
	case opChoiceBT9:
		return evalChoiceBT[relation.Tup9](ex, n, ctx), true
	case opChoiceBT10:
		return evalChoiceBT[relation.Tup10](ex, n, ctx), true
	case opChoiceBT11:
		return evalChoiceBT[relation.Tup11](ex, n, ctx), true
	case opChoiceBT12:
		return evalChoiceBT[relation.Tup12](ex, n, ctx), true
	case opChoiceBT13:
		return evalChoiceBT[relation.Tup13](ex, n, ctx), true
	case opChoiceBT14:
		return evalChoiceBT[relation.Tup14](ex, n, ctx), true
	case opChoiceBT15:
		return evalChoiceBT[relation.Tup15](ex, n, ctx), true
	case opChoiceBT16:
		return evalChoiceBT[relation.Tup16](ex, n, ctx), true
	case opIndexChoiceBT1:
		return evalIndexChoiceBT[relation.Tup1](ex, n, ctx), true
	case opIndexChoiceBT2:
		return evalIndexChoiceBT[relation.Tup2](ex, n, ctx), true
	case opIndexChoiceBT3:
		return evalIndexChoiceBT[relation.Tup3](ex, n, ctx), true
	case opIndexChoiceBT4:
		return evalIndexChoiceBT[relation.Tup4](ex, n, ctx), true
	case opIndexChoiceBT5:
		return evalIndexChoiceBT[relation.Tup5](ex, n, ctx), true
	case opIndexChoiceBT6:
		return evalIndexChoiceBT[relation.Tup6](ex, n, ctx), true
	case opIndexChoiceBT7:
		return evalIndexChoiceBT[relation.Tup7](ex, n, ctx), true
	case opIndexChoiceBT8:
		return evalIndexChoiceBT[relation.Tup8](ex, n, ctx), true
	case opIndexChoiceBT9:
		return evalIndexChoiceBT[relation.Tup9](ex, n, ctx), true
	case opIndexChoiceBT10:
		return evalIndexChoiceBT[relation.Tup10](ex, n, ctx), true
	case opIndexChoiceBT11:
		return evalIndexChoiceBT[relation.Tup11](ex, n, ctx), true
	case opIndexChoiceBT12:
		return evalIndexChoiceBT[relation.Tup12](ex, n, ctx), true
	case opIndexChoiceBT13:
		return evalIndexChoiceBT[relation.Tup13](ex, n, ctx), true
	case opIndexChoiceBT14:
		return evalIndexChoiceBT[relation.Tup14](ex, n, ctx), true
	case opIndexChoiceBT15:
		return evalIndexChoiceBT[relation.Tup15](ex, n, ctx), true
	case opIndexChoiceBT16:
		return evalIndexChoiceBT[relation.Tup16](ex, n, ctx), true
	case opAggregateBT1:
		return evalAggregateBT[relation.Tup1](ex, n, ctx), true
	case opAggregateBT2:
		return evalAggregateBT[relation.Tup2](ex, n, ctx), true
	case opAggregateBT3:
		return evalAggregateBT[relation.Tup3](ex, n, ctx), true
	case opAggregateBT4:
		return evalAggregateBT[relation.Tup4](ex, n, ctx), true
	case opAggregateBT5:
		return evalAggregateBT[relation.Tup5](ex, n, ctx), true
	case opAggregateBT6:
		return evalAggregateBT[relation.Tup6](ex, n, ctx), true
	case opAggregateBT7:
		return evalAggregateBT[relation.Tup7](ex, n, ctx), true
	case opAggregateBT8:
		return evalAggregateBT[relation.Tup8](ex, n, ctx), true
	case opAggregateBT9:
		return evalAggregateBT[relation.Tup9](ex, n, ctx), true
	case opAggregateBT10:
		return evalAggregateBT[relation.Tup10](ex, n, ctx), true
	case opAggregateBT11:
		return evalAggregateBT[relation.Tup11](ex, n, ctx), true
	case opAggregateBT12:
		return evalAggregateBT[relation.Tup12](ex, n, ctx), true
	case opAggregateBT13:
		return evalAggregateBT[relation.Tup13](ex, n, ctx), true
	case opAggregateBT14:
		return evalAggregateBT[relation.Tup14](ex, n, ctx), true
	case opAggregateBT15:
		return evalAggregateBT[relation.Tup15](ex, n, ctx), true
	case opAggregateBT16:
		return evalAggregateBT[relation.Tup16](ex, n, ctx), true
	case opIndexAggregateBT1:
		return evalIndexAggregateBT[relation.Tup1](ex, n, ctx), true
	case opIndexAggregateBT2:
		return evalIndexAggregateBT[relation.Tup2](ex, n, ctx), true
	case opIndexAggregateBT3:
		return evalIndexAggregateBT[relation.Tup3](ex, n, ctx), true
	case opIndexAggregateBT4:
		return evalIndexAggregateBT[relation.Tup4](ex, n, ctx), true
	case opIndexAggregateBT5:
		return evalIndexAggregateBT[relation.Tup5](ex, n, ctx), true
	case opIndexAggregateBT6:
		return evalIndexAggregateBT[relation.Tup6](ex, n, ctx), true
	case opIndexAggregateBT7:
		return evalIndexAggregateBT[relation.Tup7](ex, n, ctx), true
	case opIndexAggregateBT8:
		return evalIndexAggregateBT[relation.Tup8](ex, n, ctx), true
	case opIndexAggregateBT9:
		return evalIndexAggregateBT[relation.Tup9](ex, n, ctx), true
	case opIndexAggregateBT10:
		return evalIndexAggregateBT[relation.Tup10](ex, n, ctx), true
	case opIndexAggregateBT11:
		return evalIndexAggregateBT[relation.Tup11](ex, n, ctx), true
	case opIndexAggregateBT12:
		return evalIndexAggregateBT[relation.Tup12](ex, n, ctx), true
	case opIndexAggregateBT13:
		return evalIndexAggregateBT[relation.Tup13](ex, n, ctx), true
	case opIndexAggregateBT14:
		return evalIndexAggregateBT[relation.Tup14](ex, n, ctx), true
	case opIndexAggregateBT15:
		return evalIndexAggregateBT[relation.Tup15](ex, n, ctx), true
	case opIndexAggregateBT16:
		return evalIndexAggregateBT[relation.Tup16](ex, n, ctx), true
	}
	return 0, false
}
