(** Plain-text serialization of collected logs and ground truth.

    A dump holds one collected-log snapshot (per-node logs, write order) and
    optionally the simulator's ground-truth packet fates, in a line-oriented
    format that diffs and greps well:

    {v
    # refill-log v1
    # nodes 100
    # sink 0
    r <node> <kind> <peer|-> <origin> <seq> <time> <gseq>
    ...
    t <origin> <seq> <cause> <loss-node|-> <generated> <resolved> <path,csv>
    v}

    Used by the CLI to hand logs between `simulate` and `analyze` runs. *)

type dump = {
  n_nodes : int;
  sink : Net.Packet.node_id;
  collected : Collected.t;
  truth : Truth.t option;
}

val save :
  out_channel ->
  sink:Net.Packet.node_id ->
  ?truth:Truth.t ->
  ?time_order:bool ->
  Collected.t ->
  unit
(** Write a dump.  Records go node-major by default; [~time_order:true]
    emits them in true-time arrival order ({!Collected.merged_by_time})
    instead — the shape streaming readers ({!Seg}) want, since node-major
    order would make nearly every packet look still-in-flight. *)

val save_file :
  string ->
  sink:Net.Packet.node_id ->
  ?truth:Truth.t ->
  ?time_order:bool ->
  Collected.t ->
  unit

val load : in_channel -> dump
(** @raise Failure on a malformed dump (bad, truncated or missing header,
    unknown kind/cause, wrong field count, non-decimal integer). *)

val load_file : string -> dump

val record_to_line : Record.t -> string
(** The [r ...] line for one record (without trailing newline). *)

val record_of_line : string -> Record.t
(** @raise Failure on malformed input, including an integer field that is
    not plain decimal (see {!int_of_decimal}). *)

val int_of_decimal : string -> int
(** An optional [-] followed by decimal digits — the only integer syntax a
    dump or checkpoint holds.  Unlike [int_of_string] it rejects
    ["0x1"], ["1_0"], ["+3"], ["0b11"] and ["0u5"] instead of
    reinterpreting them.
    @raise Failure on any other input or a value outside the int range. *)

val record_to_line_exact : Record.t -> string
(** Like {!record_to_line} but with the time field in hexadecimal float
    notation ([%h]), so {!record_of_line} recovers the record bit-exactly
    (including [nan] times).  Checkpoints use this; ordinary dumps keep the
    human-readable [%.6f] form. *)

(** Segmented (incremental) reading of a dump: the same on-disk format as
    {!load}, consumed chunk-by-chunk so a streaming pipeline never holds
    the whole trace.  Truth ([t ...]) and comment lines are skipped. *)
module Seg : sig
  type reader

  val of_channel : in_channel -> reader
  (** Parse the three header lines and position the reader at the first
      record.  The channel stays owned by the caller.
      @raise Failure on a malformed, truncated or missing header. *)

  val n_nodes : reader -> int

  val sink : reader -> Net.Packet.node_id

  val read : reader -> int
  (** Records returned (or skipped) so far — the stream position of the
      reader, matching what a streaming consumer counts as processed. *)

  val next : reader -> max_records:int -> Record.t array option
  (** Up to [max_records] further records, in file order; [None] at end of
      input.  @raise Failure on a malformed line, [Invalid_argument] if
      [max_records <= 0]. *)

  val skip : reader -> int -> int
  (** [skip r n] discards up to [n] records and returns how many were
      actually skipped (fewer only at end of input) — how a resumed
      streaming run fast-forwards past already-processed records. *)
end
