package ir

import (
	"bytes"
	"encoding/gob"
	"strings"
	"testing"
)

// TestProgramFromImageVerifies corrupts one field of a valid image at a
// time: ProgramFromImage must refuse each, so a bad image on disk fails
// to load instead of panicking (or silently misbehaving) in Run.
func TestProgramFromImageVerifies(t *testing.T) {
	k := vmKernel()
	p, err := NewProgram(k)
	if err != nil {
		t.Fatal(err)
	}
	// first returns the pc of the first op with code c.
	first := func(img Image, c OpCode) int {
		for pc, op := range img.Code {
			if op.Code == c {
				return pc
			}
		}
		t.Fatalf("vmKernel's program has no opcode %d", c)
		return 0
	}
	op := func(c OpCode, edit func(img Image, op *Op)) func(img *Image) {
		return func(img *Image) { edit(*img, &img.Code[first(*img, c)]) }
	}
	frame := func(img Image) int32 { return int32(img.NSlots + len(img.Consts) + img.NRegs) }
	cases := []struct {
		name    string
		corrupt func(img *Image)
		want    string
	}{
		{"opcode past the last", op(OpMove, func(_ Image, o *Op) { o.Code = numOpCodes }), "invalid opcode"},
		{"invalid opcode", op(OpMove, func(_ Image, o *Op) { o.Code = OpInvalid }), "invalid opcode"},
		{"operand past the frame", op(OpMove, func(img Image, o *Op) { o.A = frame(img) }), "outside"},
		{"negative operand", op(OpSel, func(_ Image, o *Op) { o.C = -1 }), "outside"},
		{"destination past the frame", op(OpLoad, func(img Image, o *Op) { o.Dst = frame(img) }), "outside"},
		{"checked read of a non-slot", op(OpMove, func(img Image, o *Op) { o.Code, o.A = OpSlotChecked, int32(img.NSlots) }), "outside"},
		{"jump past the code", op(OpJump, func(img Image, o *Op) { o.Dst = int32(len(img.Code) + 1) }), "outside"},
		{"loop exit past the code", op(OpLoopTest, func(img Image, o *Op) { o.Dst = int32(len(img.Code) + 1) }), "outside"},
		{"branch to a missing block", op(OpJumpIfZero, func(img Image, o *Op) { o.C = int32(len(img.Blocks)) }), "outside"},
		{"missing loop", op(OpLoopNext, func(img Image, o *Op) { o.Aux = int32(img.NLoops) }), "outside"},
		{"missing object", op(OpStore, func(img Image, o *Op) { o.Aux = int32(len(img.Objects)) }), "outside"},
		{"launch site in an image", op(OpMove, func(_ Image, o *Op) { *o = Op{Code: OpLaunch} }), "outside"},
		{"invalid BinOp", op(OpBin, func(_ Image, o *Op) { o.Aux = int32(len(binOpNames)) }), "outside"},
		{"OpAdd that is not an add", op(OpAdd, func(_ Image, o *Op) { o.Aux = int32(Sub) }), "operator"},
		{"BinOp of the wrong class", op(OpBin, func(_ Image, o *Op) { o.C = int32(ClassFloat) }), "operator"},
		{"invalid class", op(OpUn, func(_ Image, o *Op) { o.C = 7 }), "operator"},
		{"invalid UnOp", op(OpUn, func(_ Image, o *Op) { o.Aux = -1 }), "outside"},
		{"slot names short of the slots", func(img *Image) { img.SlotNames = img.SlotNames[1:] }, "names"},
		{"fewer slots than params", func(img *Image) { img.NSlots, img.SlotNames = 1, img.SlotNames[:1] }, "params"},
		{"negative registers", func(img *Image) { img.NRegs = -1 }, "registers"},
		{"block of a missing loop", func(img *Image) { img.Blocks[0].Loop = int32(img.NLoops) }, "block"},
		// The constant pool dropped from the image: every register and
		// constant operand then lies past the shrunken frame.
		{"dropped constants", func(img *Image) { img.Consts = nil }, "outside"},
	}
	for _, c := range cases {
		img := p.Image()
		img.Code = append([]Op(nil), img.Code...)
		img.Blocks = append([]Block(nil), img.Blocks...)
		c.corrupt(&img)
		_, err := ProgramFromImage(img, k)
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: err = %v, want one mentioning %q", c.name, err, c.want)
		}
	}
	if _, err := ProgramFromImage(p.Image(), k); err != nil {
		t.Fatalf("the uncorrupted image: %v", err)
	}
}

// FuzzProgramImage feeds arbitrary bytes through the image decoder (gob,
// as the artifact store reads a .program.gob) and ProgramFromImage against
// the kernel the seed images were compiled from. Neither may panic: a
// corrupt file on disk is a load error and a recompile.
func FuzzProgramImage(f *testing.F) {
	k := vmKernel()
	p, err := NewProgram(k)
	if err != nil {
		f.Fatal(err)
	}
	encode := func(img Image) []byte {
		var buf bytes.Buffer
		if err := gob.NewEncoder(&buf).Encode(img); err != nil {
			f.Fatal(err)
		}
		return buf.Bytes()
	}
	valid := encode(p.Image())
	f.Add(valid)
	f.Add(valid[:len(valid)/2])
	corrupt := p.Image()
	corrupt.Code = append([]Op(nil), corrupt.Code...)
	corrupt.Code[0].A = int32(corrupt.NSlots + len(corrupt.Consts) + corrupt.NRegs)
	f.Add(encode(corrupt))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, raw []byte) {
		var img Image
		if err := gob.NewDecoder(bytes.NewReader(raw)).Decode(&img); err != nil {
			return
		}
		ProgramFromImage(img, k)
	})
}
