(** Index keys.

    An index entry is the pair [<key value, RID>] (paper §1.1). The key
    value is the concatenation of the indexed columns' values; entries are
    ordered by key value, then RID, ascending. A *nonunique* index may hold
    many entries with equal key value (distinguished by RID); a *unique*
    index admits at most one non-pseudo-deleted entry per key value. *)

type t = private { kv : string; rid : Rid.t; pfx : int }
(** [pfx] caches the first 7 bytes of [kv], big-endian and zero-padded
    (56 bits). It preserves order: [a.pfx < b.pfx] implies
    [a.kv < b.kv] under [String.compare], because a string that is a
    proper prefix of another sorts first and NUL is the lowest byte.
    Equal prefixes decide nothing. The field is never serialized. *)

val make : string -> Rid.t -> t
(** The only constructor; computes [pfx]. *)

val prefix_bytes : int
(** How many leading key-value bytes [pfx] holds: 7. *)

val prefix_at : string -> pos:int -> len:int -> int
(** The [pfx] of the key value held in [s.[pos..pos+len)], for a caller
    that keeps key values inside a larger image. *)

val compare : t -> t -> int
(** Full order: key value, then RID; decided on [pfx] when the
    prefixes differ. Duplicate rejection in nonunique
    indexes matches on this full order (paper §2.2.3: "for a nonunique
    index, the key must match completely (<key value, RID>)"). *)

val compare_kv : t -> t -> int
(** Key-value order only — what unique-violation detection compares. *)

val equal : t -> t -> bool
val encoded_size : t -> int
(** Bytes this entry charges against a page's free space. *)

val cost_of_kv_length : int -> int
(** {!encoded_size} of an entry whose key value has this length. *)

val pp : Format.formatter -> t -> unit
val to_string : t -> string
