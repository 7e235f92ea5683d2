// Package msg implements the ISIS message subsystem described in Section 4.1
// of the paper. A message is represented as a symbol table containing
// multiple fields, each having a name, a type, and variable-length data.
// Fields can be inserted and deleted at will, special system fields carry
// information such as the address of the sender (which cannot be forged by
// clients, since only the protocols process sets it), the session id used to
// match a reply with a pending call, and so on. A field can even contain
// another message.
//
// The symbol table is stored as a slice of compact fields kept sorted by name
// rather than a map: iteration in marshalling order is then allocation-free
// and a decoder can size the table exactly. Lookups use binary search; daemon
// packets have at most a dozen fields, so this is also faster than hashing in
// practice.
//
// Ownership: a message's table is its own, but variable-length values
// (bytes, strings, address lists) are immutable once stored and may be shared
// — by Clone, by the per-member deliveries the protocols process builds from
// one received packet, and by the fields of one decoded packet, which all
// point into the buffer it was decoded from (UnmarshalOwned keeps the one it
// is given, Unmarshal a private copy). A Put therefore never disturbs
// another holder. Bytes and GetBytes return copies the caller owns; BytesView
// is the read-only no-copy accessor. ARCHITECTURE.md ("Message ownership and
// copies") has the full table.
package msg
