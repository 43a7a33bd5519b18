(** The serving daemon's wire protocol: one message catalogue, two
    framings sharing the codec.

    {b Binary} frames are [magic 0xA7, version, tag, payload-len
    (u32be), payload] with all integers as i64be and floats as their
    IEEE-754 bits in i64be — encode→decode is bit-exact by
    construction. {b Json} frames are one compact object per
    [\n]-terminated line ([{"t": "submit", ...}]), floats printed via
    {!Jsonx.float_literal} ([%.17g]) so finite doubles round-trip
    exactly too.

    A connection speaks one framing; the daemon auto-detects it from
    the first byte ([{] → Json, [0xA7] → Binary). See docs/SERVING.md
    for the full frame layout and message catalogue. *)

(** Bumped on any incompatible change; carried in both the binary
    frame header and {!Hello}. *)
val protocol_version : int

(** One per-tenant accounting line in the end-of-run summary. *)
type tenant_row = {
  tr_tenant : int;
  tr_completed : int;
  tr_rejected : int;
  tr_profit : float;
}

type summary = {
  completed : int;
  rejected : int;
  dropped : int;
  measured : int;
  late : int;
  total_profit : float;
  avg_loss : float;
  avg_response : float;
  vnow : float;  (** virtual clock at summary time (ms) *)
  tenants : tenant_row list;
      (** per-tenant lines, sorted by tenant id; empty on an untagged
          run *)
}

type msg =
  | Hello of { version : int; client : string }
      (** optional client greeting; the daemon replies in kind *)
  | Submit of Query.t  (** a query arrival (client → daemon) *)
  | Eof
      (** no more submissions: the daemon drains and answers with
          {!Summary} (client → daemon); also the daemon's shutdown
          notice to clients (daemon → client) *)
  | Decision of {
      qid : int;
      vnow : float;
      target : int option;  (** [None] = rejected by admission *)
      est_delta : float option;
    }
  | Completion of { qid : int; vnow : float; profit : float }
  | Dropped of { qid : int; vnow : float }
  | Summary of summary
  | Error_msg of string
      (** daemon → client just before closing a misbehaving
          connection *)

type framing = Binary | Json

(** Structural equality with bit-exact float comparison (NaN equals
    NaN; [0.] and [-0.] differ) — what the round-trip fuzz asserts. *)
val equal : msg -> msg -> bool

val pp : Format.formatter -> msg -> unit

(** One complete frame, newline included in the Json framing. A binary
    frame is written once, into a buffer of its exact size. *)
val encode : framing -> msg -> string

type decode_error =
  | Truncated  (** a frame prefix — feed more bytes *)
  | Malformed of string  (** unrecoverable; close the connection *)

(** Decode one message from the head of [s]; on success also returns
    the number of bytes consumed. A Json line longer than 1 MiB is
    [Malformed], whether or not [s] holds its newline, as a binary
    frame whose length field passes 1 MiB is. *)
val decode : framing -> string -> (msg * int, decode_error) result

(** Incremental decoder over an arbitrary chunking of the byte
    stream. It keeps the pending bytes in one buffer behind two
    cursors and decodes each message where it lies, so its cost per
    message does not grow with the size of the reads fed to it. *)
module Decoder : sig
  type t

  (** Without [framing], the first fed byte picks it. *)
  val create : ?framing:framing -> unit -> t

  (** [None] until auto-detection has seen a byte. *)
  val framing : t -> framing option

  val feed : t -> string -> unit

  (** [feed_subbytes t b off len] feeds [len] bytes of [b] from [off]:
      a read buffer goes in with one copy. Raises [Invalid_argument]
      on a range outside [b]. *)
  val feed_subbytes : t -> Bytes.t -> int -> int -> unit

  (** Next complete message, if any: [Ok None] means feed more bytes;
      [Error _] means the stream is malformed (bad magic, unknown
      framing or tag, oversized or unparseable frame, a Json line
      past 1 MiB without its newline) and the connection should be
      closed. *)
  val next : t -> (msg option, string) result

  (** Unconsumed bytes held. *)
  val buffered : t -> int
end
