package protos

import (
	"bytes"
	"encoding/hex"
	"reflect"
	"slices"
	"testing"

	"repro/internal/addr"
	"repro/internal/core"
	"repro/internal/msg"
	"repro/internal/vclock"
)

// goldenWire holds the control packets, each in its fixed order of fields
// under the one encoding rule (an integer a minimal uvarint or, a rank, a
// zigzag varint; a count or a length a uvarint; an address and a GBCAST
// request id 8 bytes): the GBCAST family (one gbPacket layout: envelope, call
// id, group, kind, request id, seal target, outcome, flags, then the sections
// the flags select), a lookup and its answer (call id, site, primary, then a
// view), a state block (group, joiner, transfer id, last, then the block), an
// error (call id, then the text) and a relay's acknowledgement (stamp, call
// id). A view is its group, id, name and members; a report entry is the id,
// the list tag and the nested packet's length. "carried" is a request from a
// member site that carries the site's answer to the prepare: the request's
// head and processes, then the sections an ack has, in the same layout. Types
// 43-47 and 49-53 are these layouts; the fixed-width ones they replace are in
// goldenRetired.
var goldenWire = map[string]string{
	"ack": "0134" + "1f" + "0000000000000000" + "00" + "0000000000000000" + "0000000000000000" + "02" + "b8" +
		"0001000200000003060562656e636803000201010000000700010001000000010003020100abcdef0200020101000000" +
		"072a044601300101100200010002000000030500020101000000072a0303000904084073657373696f6e0312016e03f2" +
		"c0010170010c68656c6c6f2c20776f726c64017302047465787400020101000000072904460130010210000001000200" +
		"0000030500020101000000072a0304000904084073657373696f6e0312016e03f2c0010170010c68656c6c6f2c20776f" +
		"726c640173020474657874010002010100000007010003020100abcdef",
	"carried": "0131" + "1f" + "0001000200000003" + "03" + "0000004d00000001" + "0000000000000000" + "00" + "bc" +
		"0100020101000000070001000200000003060562656e636803000201010000000700010001000000010003020100abcd" +
		"ef0200020101000000072a044601300101100200010002000000030500020101000000072a0303000904084073657373" +
		"696f6e0312016e03f2c0010170010c68656c6c6f2c20776f726c64017302047465787400020101000000072904460130" +
		"0102100000010002000000030500020101000000072a0304000904084073657373696f6e0312016e03f2c0010170010c" +
		"68656c6c6f2c20776f726c640173020474657874010002010100000007010003020100abcdef",
	"commit": "0135" + "00" + "0001000200000003" + "03" + "0000004d00000001" + "0000000000000000" + "00" + "9e" +
		"0100020101000000070001000200000003060562656e636803000201010000000700010001000000010003020100abcd" +
		"ef0200020101000000072a044601300101100200010002000000030500020101000000072a0303000904084073657373" +
		"696f6e0312016e03f2c0010170010c68656c6c6f2c20776f726c64017302047465787400020101000000072904460130" +
		"0102100000010002000000030500020101000000072a0304000904084073657373696f6e0312016e03f2c0010170010c" +
		"68656c6c6f2c20776f726c640173020474657874010003020100abcdef",
	"done": "0132" + "1f" + "0000000000000000" + "00" + "0000000000000000" + "0000000000000000" + "01" + "08" +
		"0001000200000003060562656e636803000201010000000700010001000000010003020100abcdef",
	"error": "012e" + "1f" +
		"70726f746f733a2067726f757020697320696e2061206e6f6e2d7072696d61727920706172746974696f6e2028726561" +
		"642d6f6e6c7929",
	"lookup": "012b" + "1f" + "00" + "00" + "0001000200000003000562656e636800",
	"lookupresp": "012c" + "1f" + "02" + "01" +
		"0001000200000003060562656e636803000201010000000700010001000000010003020100abcdef",
	"nonprimary": "0135" + "00" + "0001000200000003" + "06" + "0000000000000000" + "0000000000000000" + "00" + "00",
	"prepare":    "0133" + "1f" + "0001000200000003" + "00" + "0000000000000000" + "0000004d00000001" + "00" + "04" + "010002010100000007",
	"relayack":   "012f" + "05" + "02" + "09" + "1f",
	"request":    "0131" + "1f" + "0001000200000003" + "01" + "0000004d00000001" + "0000000000000000" + "00" + "05" + "010003020100abcdef",
	"resume": "0135" + "00" + "0001000200000003" + "07" + "0000000000000000" + "0000000000000000" + "00" + "08" +
		"0001000200000003060562656e636803000201010000000700010001000000010003020100abcdef",
	"stateblock": "012d" + "0001000200000003" + "0003020100abcdef" + "06" + "00" + "726f772d31",
	"usergb":     "0131" + "1f" + "0001000200000003" + "04" + "0000004d00000001" + "0000000000000000" + "00" + "40" + "100002010100000007010173020474657874",
}

// goldenData holds the ptData packets (type 48): envelope, flags, protocol,
// entry, rank, group, view, id, the sections the flags select, then the
// payload as it is marshalled. An ABCAST carries a timestamp, its site's clock
// in a submission and rank 0's stamp once the holder sends it on. 28 bytes
// lead the payload of a CBCAST or a stamped ABCAST in a view of three.
var goldenData = map[string]string{
	"abrelay": "0130" + "040210" + "01" + "0001000200000003" + "05" + "0002010100000007" + "2a" + "0000001f" +
		"04084073657373696f6e0312016e03f2c0010170010c68656c6c6f2c20776f726c640173020474657874",
	"cbcast": "0130" + "010110" + "02" + "0001000200000003" + "05" + "0002010100000007" + "2a" + "03030009" +
		"04084073657373696f6e0312016e03f2c0010170010c68656c6c6f2c20776f726c640173020474657874",
	"p2p": "0130" + "080100" + "00" + "0000000000000000" + "00" + "0002010100000007" + "2a" + "010001000100000001" +
		"0206407265706c790302084073657373696f6e0312",
	"relay": "0130" + "040110" + "01" + "0001000200000003" + "05" + "0002010100000007" + "2a" + "0502081f" +
		"04084073657373696f6e0312016e03f2c0010170010c68656c6c6f2c20776f726c640173020474657874",
	"stamped": "0130" + "010210" + "00" + "0001000200000003" + "05" + "0002010100000007" + "2a" + "03040009" +
		"04084073657373696f6e0312016e03f2c0010170010c68656c6c6f2c20776f726c640173020474657874",
	"submission": "0130" + "010210" + "01" + "0001000200000003" + "05" + "0002010100000007" + "2a" + "03030009" +
		"04084073657373696f6e0312016e03f2c0010170010c68656c6c6f2c20776f726c640173020474657874",
}

// goldenRetired holds the last encodings the retired numbers had: the
// proposal, commit and re-solicitation of the two-phase ABCAST (17-19, each a
// 40-byte record: group, message id, priority, attempt), a data packet whose
// flag 2 section is a fenced ABCAST's attempt (21), a data packet whose flag 2
// section is the holder's number for an ABCAST and one that submits it
// unnumbered (33), a prepare ack and a commit whose report entries carry that
// number (25, 26), the GBCAST family's request, done, prepare, ack and commit
// with the 51-byte head (22-24, 35, 36: GBCAST sequence 17-24, view id
// 25-32), a joiner's state ack (30: a state block's header alone), and every
// packet of the fixed-width layout, whose integers took 2 or 8 bytes big
// endian and whose messages were marshalled with 6-byte field heads (20,
// 27-29, 31, 32, 34, 37-41: the "fixed-width" names). A site drops each of
// them unread.
var goldenRetired = map[string]string{
	"propose":   "0111" + "0001000200000003" + "0002010100000007" + "000000000000002a" + "000000000000004d" + "0000000000000002",
	"commit":    "0112" + "0001000200000003" + "0002010100000007" + "000000000000002a" + "000000000000004d" + "0000000000000000",
	"resolicit": "0113" + "0001000200000003" + "0002010100000007" + "000000000000002a" + "0000000000000000" + "0000000000000000",
	"numbered": "0121" + "020210" + "0001" + "0001000200000003" + "0000000000000005" + "0002010100000007" + "000000000000002a" +
		"0000000000000003" +
		"0004084073657373696f6e03000000080000000000000009016e030000000800000000000030390170010000000c6865" +
		"6c6c6f2c20776f726c640173020000000474657874",
	"unnumbered": "0121" + "000210" + "0001" + "0001000200000003" + "0000000000000005" + "0002010100000007" + "000000000000002a" +
		"0004084073657373696f6e03000000080000000000000009016e030000000800000000000030390170010000000c6865" +
		"6c6c6f2c20776f726c640173020000000474657874",
	"numbered ack": "0119" + "000000000000001f" + "0000000000000000" + "00" + "0000000000000000" + "0000000000000000" + "0000000000000000" + "0000000000000000" + "02" + "38" +
		"00010002000000030000000000000006000562656e63680003000201010000000700010001000000010003020100abcd" +
		"ef00020002010100000007000000000000002a0000000000000000040000008601210101100001000100020000000300" +
		"000000000000050002010100000007000000000000002a00030000000000000003000000000000000000000000000000" +
		"090004084073657373696f6e03000000080000000000000009016e030000000800000000000030390170010000000c68" +
		"656c6c6f2c20776f726c6401730200000004746578740002010100000007000000000000002900000000000000030400" +
		"00007401210202100001000100020000000300000000000000050002010100000007000000000000002a000000000000" +
		"00030004084073657373696f6e03000000080000000000000009016e030000000800000000000030390170010000000c" +
		"68656c6c6f2c20776f726c64017302000000047465787400010002010100000007",
	"numbered commit": "011a" + "0000000000000000" + "0001000200000003" + "03" + "0000000000000009" + "0000000000000000" + "0000004d00000001" + "0000000000000000" + "00" + "1e" +
		"00010003020100abcdef00010002000000030000000000000006000562656e6368000300020101000000070001000100" +
		"0000010003020100abcdef00020002010100000007000000000000002a00000000000000000400000086012101011000" +
		"01000100020000000300000000000000050002010100000007000000000000002a000300000000000000030000000000" +
		"00000000000000000000090004084073657373696f6e03000000080000000000000009016e0300000008000000000000" +
		"30390170010000000c68656c6c6f2c20776f726c64017302000000047465787400020101000000070000000000000029" +
		"000000000000000304000000740121020210000100010002000000030000000000000005000201010000000700000000" +
		"0000002a00000000000000030004084073657373696f6e03000000080000000000000009016e03000000080000000000" +
		"0030390170010000000c68656c6c6f2c20776f726c640173020000000474657874",
	"restart": "0115" + "020210" + "0001" + "0001000200000003" + "0000000000000006" + "0002010100000007" + "000000000000002a" +
		"0000000000000002" +
		"0004084073657373696f6e03000000080000000000000009016e030000000800000000000030390170010000000c6865" +
		"6c6c6f2c20776f726c640173020000000474657874",
	"head ack": "0123" + "000000000000001f" + "0000000000000000" + "00" + "0000000000000000" + "0000000000000000" + "0000000000000000" + "0000000000000000" + "02" + "38" +
		"00010002000000030000000000000006000562656e63680003000201010000000700010001000000010003020100abcd" +
		"ef00020002010100000007000000000000002a0400000086012201011000010001000200000003000000000000000500" +
		"02010100000007000000000000002a000300000000000000030000000000000000000000000000000900040840736573" +
		"73696f6e03000000080000000000000009016e030000000800000000000030390170010000000c68656c6c6f2c20776f" +
		"726c64017302000000047465787400020101000000070000000000000029040000008601220102100000000100020000" +
		"000300000000000000050002010100000007000000000000002a00030000000000000004000000000000000000000000" +
		"000000090004084073657373696f6e03000000080000000000000009016e030000000800000000000030390170010000" +
		"000c68656c6c6f2c20776f726c64017302000000047465787400010002010100000007",
	"head commit": "0124" + "0000000000000000" + "0001000200000003" + "03" + "0000000000000009" + "0000000000000000" + "0000004d00000001" + "0000000000000000" + "00" + "1e" +
		"00010003020100abcdef00010002000000030000000000000006000562656e6368000300020101000000070001000100" +
		"0000010003020100abcdef00020002010100000007000000000000002a04000000860122010110000100010002000000" +
		"0300000000000000050002010100000007000000000000002a0003000000000000000300000000000000000000000000" +
		"0000090004084073657373696f6e03000000080000000000000009016e03000000080000000000003039017001000000" +
		"0c68656c6c6f2c20776f726c640173020000000474657874000201010000000700000000000000290400000086012201" +
		"02100000000100020000000300000000000000050002010100000007000000000000002a000300000000000000040000" +
		"00000000000000000000000000090004084073657373696f6e03000000080000000000000009016e0300000008000000" +
		"00000030390170010000000c68656c6c6f2c20776f726c640173020000000474657874",
	"head done": "0117" + "000000000000001f" + "0000000000000000" + "00" + "0000000000000000" + "0000000000000000" + "0000000000000000" + "0000000000000000" + "01" + "08" +
		"00010002000000030000000000000006000562656e63680003000201010000000700010001000000010003020100abcd" +
		"ef",
	"head prepare": "0118" + "000000000000001f" + "0001000200000003" + "00" + "0000000000000009" + "0000000000000006" + "0000000000000000" + "0000004d00000001" + "00" + "04" +
		"00010002010100000007",
	"head request": "0116" + "000000000000001f" + "0001000200000003" + "01" + "0000000000000000" + "0000000000000000" + "0000004d00000001" + "0000000000000000" + "00" + "05" +
		"00010003020100abcdef",
	"stateack": "011e" + "0001000200000003" + "0003020100abcdef" + "0000000000000006" + "01",
	"fixed-width ack": "0128" + "000000000000001f" + "0000000000000000" + "00" + "0000000000000000" + "0000000000000000" + "02" + "b8" +
		"00010002000000030000000000000006000562656e63680003000201010000000700010001000000010003020100abcd" +
		"ef00020002010100000007000000000000002a0400000086012201011000010001000200000003000000000000000500" +
		"02010100000007000000000000002a000300000000000000030000000000000000000000000000000900040840736573" +
		"73696f6e03000000080000000000000009016e030000000800000000000030390170010000000c68656c6c6f2c20776f" +
		"726c64017302000000047465787400020101000000070000000000000029040000008601220102100000000100020000" +
		"000300000000000000050002010100000007000000000000002a00030000000000000004000000000000000000000000" +
		"000000090004084073657373696f6e03000000080000000000000009016e030000000800000000000030390170010000" +
		"000c68656c6c6f2c20776f726c6401730200000004746578740001000201010000000700010003020100abcdef",
	"fixed-width carried": "0125" + "000000000000001f" + "0001000200000003" + "03" + "0000004d00000001" + "0000000000000000" + "00" + "bc" +
		"0001000201010000000700010002000000030000000000000006000562656e6368000300020101000000070001000100" +
		"0000010003020100abcdef00020002010100000007000000000000002a04000000860122010110000100010002000000" +
		"0300000000000000050002010100000007000000000000002a0003000000000000000300000000000000000000000000" +
		"0000090004084073657373696f6e03000000080000000000000009016e03000000080000000000003039017001000000" +
		"0c68656c6c6f2c20776f726c640173020000000474657874000201010000000700000000000000290400000086012201" +
		"02100000000100020000000300000000000000050002010100000007000000000000002a000300000000000000040000" +
		"00000000000000000000000000090004084073657373696f6e03000000080000000000000009016e0300000008000000" +
		"00000030390170010000000c68656c6c6f2c20776f726c64017302000000047465787400010002010100000007000100" +
		"03020100abcdef",
	"fixed-width commit": "0129" + "0000000000000000" + "0001000200000003" + "03" + "0000004d00000001" + "0000000000000000" + "00" + "9e" +
		"0001000201010000000700010002000000030000000000000006000562656e6368000300020101000000070001000100" +
		"0000010003020100abcdef00020002010100000007000000000000002a04000000860122010110000100010002000000" +
		"0300000000000000050002010100000007000000000000002a0003000000000000000300000000000000000000000000" +
		"0000090004084073657373696f6e03000000080000000000000009016e03000000080000000000003039017001000000" +
		"0c68656c6c6f2c20776f726c640173020000000474657874000201010000000700000000000000290400000086012201" +
		"02100000000100020000000300000000000000050002010100000007000000000000002a000300000000000000040000" +
		"00000000000000000000000000090004084073657373696f6e03000000080000000000000009016e0300000008000000" +
		"00000030390170010000000c68656c6c6f2c20776f726c64017302000000047465787400010003020100abcdef",
	"fixed-width done": "0126" + "000000000000001f" + "0000000000000000" + "00" + "0000000000000000" + "0000000000000000" + "01" + "08" +
		"00010002000000030000000000000006000562656e63680003000201010000000700010001000000010003020100abcd" +
		"ef",
	"fixed-width error": "011f" + "000000000000001f" + "70726f746f733a2067726f757020697320696e2061206e6f6e2d7072696d61727920706172746974696f6e2028726561642d6f6e6c7929",
	"fixed-width lookup": "011b" + "000000000000001f" + "0000" + "00" +
		"00010002000000030000000000000000000562656e63680000",
	"fixed-width lookupresp": "011c" + "000000000000001f" + "0002" + "01" +
		"00010002000000030000000000000006000562656e63680003000201010000000700010001000000010003020100abcd" +
		"ef",
	"fixed-width nonprimary": "0129" + "0000000000000000" + "0001000200000003" + "06" + "0000000000000000" + "0000000000000000" + "00" + "00",
	"fixed-width prepare": "0127" + "000000000000001f" + "0001000200000003" + "00" + "0000000000000000" + "0000004d00000001" + "00" + "04" +
		"00010002010100000007",
	"fixed-width relayack": "0120" + "0000000000000005" + "0001" + "0000000000000009" + "000000000000001f",
	"fixed-width request": "0125" + "000000000000001f" + "0001000200000003" + "01" + "0000004d00000001" + "0000000000000000" + "00" + "05" +
		"00010003020100abcdef",
	"fixed-width resume": "0129" + "0000000000000000" + "0001000200000003" + "07" + "0000000000000000" + "0000000000000000" + "00" + "08" +
		"00010002000000030000000000000006000562656e63680003000201010000000700010001000000010003020100abcd" +
		"ef",
	"fixed-width stateblock": "011d" + "0001000200000003" + "0003020100abcdef" + "0000000000000006" + "00" + "726f772d31",
	"fixed-width usergb": "0125" + "000000000000001f" + "0001000200000003" + "04" + "0000004d00000001" + "0000000000000000" + "00" + "40" +
		"10000201010000000700010173020000000474657874",
	"fixed-width submission": "0122" + "010210" + "ffff" + "0001000200000003" + "0000000000000005" + "0002010100000007" + "000000000000002a" +
		"0003000000000000000300000000000000000000000000000009" +
		"0004084073657373696f6e03000000080000000000000009016e030000000800000000000030390170010000000c6865" +
		"6c6c6f2c20776f726c640173020000000474657874",
	"fixed-width stamped": "0122" + "010210" + "0000" + "0001000200000003" + "0000000000000005" + "0002010100000007" + "000000000000002a" +
		"0003000000000000000400000000000000000000000000000009" +
		"0004084073657373696f6e03000000080000000000000009016e030000000800000000000030390170010000000c6865" +
		"6c6c6f2c20776f726c640173020000000474657874",
	"fixed-width cbcast": "0122" + "010110" + "0001" + "0001000200000003" + "0000000000000005" + "0002010100000007" + "000000000000002a" +
		"0003000000000000000300000000000000000000000000000009" +
		"0004084073657373696f6e03000000080000000000000009016e030000000800000000000030390170010000000c6865" +
		"6c6c6f2c20776f726c640173020000000474657874",
	"fixed-width p2p": "0122" + "080100" + "0000" + "0000000000000000" + "0000000000000000" + "0002010100000007" + "000000000000002a" +
		"00010001000100000001" +
		"000206407265706c7903000000080000000000000001084073657373696f6e03000000080000000000000009",
	"fixed-width relay": "0122" + "040110" + "ffff" + "0001000200000003" + "0000000000000005" + "0002010100000007" + "000000000000002a" +
		"000000000000000500010000000000000008000000000000001f" +
		"0004084073657373696f6e03000000080000000000000009016e030000000800000000000030390170010000000c6865" +
		"6c6c6f2c20776f726c640173020000000474657874",
	"fixed-width abrelay": "0122" + "040210" + "ffff" + "0001000200000003" + "0000000000000005" + "0002010100000007" + "000000000000002a" +
		"0000000000000000" + "0000" + "0000000000000000" + "000000000000001f" +
		"0004084073657373696f6e03000000080000000000000009016e030000000800000000000030390170010000000c6865" +
		"6c6c6f2c20776f726c640173020000000474657874",
	"fixed-width reply":     "0114" + "0001000100000001" + "0002010100000007" + "0000000000000009" + "01" + "00010173020000000474657874",
	"fixed-width nullreply": "0114" + "0001000100000001" + "0002010100000007" + "0000000000000009" + "02" + "0000",
}

// goldenDataPackets rebuilds the packets of goldenData.
func goldenDataPackets() map[string]*dataPacket {
	sender := addr.NewProcess(2, 1, 7)
	gid := addr.NewGroup(1, 0, 3)
	id := core.MsgID{Sender: sender, Seq: 42}
	app := func() *msg.Message {
		return msg.New().PutInt("n", 12345).PutBytes("p", []byte("hello, world")).PutString("s", "text").
			PutInt(msg.FSession, 9)
	}
	return map[string]*dataPacket{
		// An ABCAST as its sender submits it to the holder, with its site's clock
		// as released, and as the holder sends it on, stamped fourth at rank 0.
		"submission": {proto: ABCAST, entry: addr.EntryUserBase, group: gid, view: 5, id: id, rank: -1, vt: vclock.VC{3, 0, 9}, payload: app()},
		"stamped":    {proto: ABCAST, entry: addr.EntryUserBase, group: gid, view: 5, id: id, rank: 0, vt: vclock.VC{4, 0, 9}, payload: app()},
		"cbcast":     {proto: CBCAST, entry: addr.EntryUserBase, group: gid, view: 5, id: id, rank: 1, vt: vclock.VC{3, 0, 9}, payload: app()},
		"p2p": {proto: CBCAST, id: id, dests: addr.List{addr.NewProcess(1, 0, 1)},
			payload: msg.New().PutInt(msg.FSession, 9).PutInt(msg.FReply, 1)},
		// A non-member's CBCAST on its way to the relay site, naming the stamp its
		// previous one was acknowledged with (PR 19); the acknowledgement is
		// goldenWire's "relayack". What the relay site fans out is "cbcast".
		"relay": {proto: CBCAST, entry: addr.EntryUserBase, group: gid, view: 5, id: id, rank: -1,
			after: relayStamp{view: 5, rank: 1, seq: 8}, call: 31, payload: app()},
		// A non-member's ABCAST on its way to the relay site, which casts it as a
		// member's there would be: "submission" or "stamped".
		"abrelay": {proto: ABCAST, entry: addr.EntryUserBase, group: gid, view: 5, id: id, rank: -1, call: 31, payload: app()},
	}
}

// A state block as its header and block, and an answer (an error, a relay's
// acknowledgement) with the call it answers: goldenWire values.
type (
	goldenBlock struct {
		stateHeader
		block []byte
	}
	goldenAnswer struct {
		a    answer
		call int64
	}
)

// goldenWireValues rebuilds the values of goldenWire, with their packet types.
func goldenWireValues(t *testing.T) (map[string]any, map[string]byte) {
	sender, joiner := addr.NewProcess(2, 1, 7), addr.NewProcess(3, 2, 0xabcdef)
	gid := addr.NewGroup(1, 0, 3)
	id := core.MsgID{Sender: sender, Seq: 42}
	pkts := goldenDataPackets()
	for _, p := range pkts {
		if err := p.encode(); err != nil {
			t.Fatal(err)
		}
	}
	view := core.View{Group: gid, Name: "bench", ID: 6, Members: addr.List{sender, addr.NewProcess(1, 0, 1), joiner}}
	report := pendingReport{
		{ID: id, Packet: pkts["cbcast"].raw},
		{ID: core.MsgID{Sender: sender, Seq: 41}, Packet: pkts["stamped"].raw},
	}
	rid := int64(77)<<32 | 1
	return map[string]any{
			"request": gbPacket{call: 31, group: gid, kind: gbJoin, reqID: rid, wantState: true, procs: addr.List{joiner}},
			"usergb": gbPacket{call: 31, group: gid, kind: gbUser, reqID: rid, entry: addr.EntryUserBase, sender: sender,
				payload: msg.New().PutString("s", "text")},
			"done":    gbPacket{call: 31, view: view, outcome: voteCommitted},
			"prepare": gbPacket{call: 31, group: gid, procs: addr.List{sender}, sealTarget: rid},
			"ack":     gbPacket{call: 31, view: view, report: report, dead: addr.List{sender}, xfers: addr.List{joiner}, outcome: voteAborted},
			"carried": gbPacket{call: 31, group: gid, kind: gbFail, reqID: rid, procs: addr.List{sender},
				view: view, report: report, dead: addr.List{sender}, xfers: addr.List{joiner}},
			"commit": gbPacket{group: gid, kind: gbFail, procs: addr.List{sender}, view: view, report: report, xfers: addr.List{joiner},
				reqID: rid, force: true},
			"nonprimary": gbPacket{group: gid, kind: gbNonPrimary},
			"resume":     gbPacket{group: gid, kind: gbResume, view: view},
			"lookup":     lookupPacket{call: 31, view: core.View{Group: gid, Name: "bench"}},
			"lookupresp": lookupPacket{call: 31, site: 2, primary: true, view: view},
			"stateblock": goldenBlock{stateHeader{group: gid, joiner: joiner, xferID: 6}, []byte("row-1")},
			"error":      goldenAnswer{answer{err: ErrNonPrimary}, 31},
			"relayack":   goldenAnswer{answer{stamp: relayStamp{view: 5, rank: 1, seq: 9}}, 31},
		}, map[string]byte{"request": ptGbRequest, "usergb": ptGbRequest, "carried": ptGbRequest, "done": ptGbDone, "prepare": ptGbPrepare,
			"ack": ptGbAck, "commit": ptGbCommit, "nonprimary": ptGbCommit, "resume": ptGbCommit, "lookup": ptLookup,
			"lookupresp": ptLookupResp, "stateblock": ptStateBlock, "error": ptError, "relayack": ptRelayAck}
}

// TestWireEncodingMatchesGolden checks the control packets' layouts both ways:
// today's encoders produce the golden bytes, and the golden bytes parse to the
// value they were built from (an error to its sentinel) and encode to
// themselves again.
func TestWireEncodingMatchesGolden(t *testing.T) {
	values, types := goldenWireValues(t)
	if len(values) != len(goldenWire) {
		t.Fatalf("%d values for %d golden encodings", len(values), len(goldenWire))
	}
	for name, v := range values {
		want, pt := goldenWire[name], types[name]
		old, _ := hex.DecodeString(want)
		if len(old) < envelopeBytes || old[0] != wireVersion || old[1] != pt {
			t.Fatalf("%s: golden envelope %x, want type %d", name, old[:min(len(old), envelopeBytes)], pt)
		}
		body := old[envelopeBytes:]
		var got, again []byte
		var back any
		ok := true
		switch v := v.(type) {
		case gbPacket:
			got, _ = v.encode(pt)
			var p gbPacket
			ok = p.parse(body)
			again, _ = p.encode(pt)
			if v.payload != nil { // compared as the bytes it marshals to, above
				v.payload, p.payload = nil, nil
			}
			back, values[name] = p, v
		case lookupPacket:
			got = v.encode(pt)
			var l lookupPacket
			l, ok = parseLookup(body)
			again, back = l.encode(pt), l
		case goldenBlock:
			got = v.encode(v.block)
			h, block, sok := parseState(body)
			again, back, ok = h.encode(block), goldenBlock{h, block}, sok
		case goldenAnswer:
			got = v.a.encode(pt, v.call)
			var b goldenAnswer
			b.call, b.a, ok = parseAnswer(pt, body)
			again, back = b.a.encode(pt, b.call), b
		}
		if hex.EncodeToString(got) != want {
			t.Errorf("%s: encoding moved\n got %x\nwant %s", name, got, want)
		}
		if !ok || !reflect.DeepEqual(back, values[name]) {
			t.Errorf("%s: golden bytes parse to %+v (ok=%v), want %+v", name, back, ok, values[name])
		}
		if hex.EncodeToString(again) != want {
			t.Errorf("%s: parse and re-encode moved the bytes\n got %x\nwant %s", name, again, want)
		}
	}
}

// TestDataPacketMatchesGolden checks the data packet's layout both ways: a
// packet encodes to its golden bytes, and the golden bytes parse to that packet
// and encode to themselves again — re-marshalled from the decoded payload, and
// re-headed in front of the payload bytes they came with.
func TestDataPacketMatchesGolden(t *testing.T) {
	packets := goldenDataPackets()
	if len(packets) != len(goldenData) {
		t.Fatalf("%d packets for %d golden encodings", len(packets), len(goldenData))
	}
	for name, p := range packets {
		want := goldenData[name]
		if err := p.encode(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if got := hex.EncodeToString(p.raw); got != want {
			t.Errorf("%s: encoding moved\n got %s\nwant %s", name, got, want)
		}
		old, _ := hex.DecodeString(want)
		back, ok := parseDataPacket(old)
		if !ok {
			t.Fatalf("%s: golden bytes do not parse", name)
		}
		wantPayload, _ := p.payload.Marshal()
		if gotPayload, _ := back.payload.Marshal(); !bytes.Equal(gotPayload, wantPayload) || !bytes.Equal(old[back.body:], wantPayload) {
			t.Errorf("%s: payload %s at offset %d, want %s", name, back.payload.Format(), back.body, p.payload.Format())
		}
		hdr, wantHdr := *back, *p
		hdr.payload, hdr.raw, wantHdr.payload, wantHdr.raw = nil, nil, nil, nil
		hdr.vtBuf = wantHdr.vtBuf // the timestamp is compared as vt
		if !reflect.DeepEqual(hdr, wantHdr) {
			t.Errorf("%s: golden bytes parse to %+v, want %+v", name, hdr, wantHdr)
		}
		if err := back.encode(); err != nil || hex.EncodeToString(back.raw) != want {
			t.Errorf("%s: parse and re-head moved the bytes (err %v)\n got %x\nwant %s", name, err, back.raw, want)
		}
		if back.raw = nil; back.encode() != nil || hex.EncodeToString(back.raw) != want {
			t.Errorf("%s: parse and re-marshal moved the bytes\n got %x\nwant %s", name, back.raw, want)
		}
	}
	if p := packets["cbcast"]; p.body != 28 {
		t.Errorf("the data header moved: %d bytes lead the payload of a CBCAST in a view of three, want 28", p.body)
	}
}

// goldenFixed holds the reply (type 42), the one packet with a head before a
// marshalled body that is not a data packet: caller, responder, session,
// kind, then the body.
var goldenFixed = map[string]string{
	"nullreply": "012a" + "0001000100000001" + "0002010100000007" + "09" + "02" + "00",
	"reply":     "012a" + "0001000100000001" + "0002010100000007" + "09" + "01" + "010173020474657874",
}

// TestFixedLayoutMatchesGolden checks the reply's layout both ways: today's
// encoder produces the golden bytes, and the golden bytes parse to the header
// they were built from and encode to themselves again. It also pins the type
// numbers: retired ones stay retired, and a changed layout is appended.
func TestFixedLayoutMatchesGolden(t *testing.T) {
	sender := addr.NewProcess(2, 1, 7)
	replies := map[string]struct {
		h    replyHeader
		body *msg.Message
	}{
		"reply":     {replyHeader{caller: addr.NewProcess(1, 0, 1), responder: sender, session: 9, kind: 1}, msg.New().PutString("s", "text")},
		"nullreply": {replyHeader{caller: addr.NewProcess(1, 0, 1), responder: sender, session: 9, kind: 2}, msg.New()},
	}
	for name, r := range replies {
		want := goldenFixed[name]
		raw, err := encodeReply(r.h, r.body)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if got := hex.EncodeToString(raw); got != want {
			t.Errorf("%s: encoding moved\n got %s\nwant %s", name, got, want)
		}
		old, _ := hex.DecodeString(want)
		h, body, ok := parseReply(old[envelopeBytes:])
		if !ok || h != r.h {
			t.Fatalf("%s: golden bytes parse to %+v (ok=%v), want %+v", name, h, ok, r.h)
		}
		if again, err := encodeReply(h, body); err != nil || hex.EncodeToString(again) != want {
			t.Errorf("%s: parse and re-encode moved the bytes (err %v)\n got %x\nwant %s", name, err, again, want)
		}
	}
	if len(replies) != len(goldenFixed) {
		t.Errorf("%d cases for %d golden encodings", len(replies), len(goldenFixed))
	}
	live := []byte{ptReply, ptGbRequest, ptGbDone, ptGbPrepare, ptLookup, ptLookupResp, ptStateBlock, ptError, ptRelayAck,
		ptData, ptGbAck, ptGbCommit}
	for name, h := range goldenRetired {
		raw, _ := hex.DecodeString(h)
		if _, ok := parseDataPacket(raw); ok || slices.Contains(live, raw[1]) {
			t.Errorf("%s: type %d is not retired", name, raw[1])
		}
	}
	if wireVersion != 1 || ptReply != 42 || ptLookup != 43 || ptRelayAck != 47 || ptData != 48 || ptGbRequest != 49 || ptGbCommit != 53 {
		t.Error("a packet type moved: retired numbers stay retired, new layouts are appended, wireVersion stays 1")
	}
}
