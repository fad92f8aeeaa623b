module Obs = Refill_obs

let c_events =
  Obs.Metrics.Counter.v "refill_stream_events_total"
    ~help:"Records consumed by streaming reconstruction."

let c_segments =
  Obs.Metrics.Counter.v "refill_stream_segments_total"
    ~help:"Segments fed to streaming reconstruction."

let c_flows =
  Obs.Metrics.Counter.v "refill_stream_flows_total"
    ~help:"Flows emitted by streaming reconstruction."

let c_evictions =
  Obs.Metrics.Counter.v "refill_stream_evictions_total"
    ~help:"Packets evicted from the frontier by the watermark."

let c_incomplete =
  Obs.Metrics.Counter.v "refill_stream_incomplete_flows_total"
    ~help:"Flows emitted with the Incomplete outcome."

let c_forgotten =
  Obs.Metrics.Counter.v "refill_stream_forgotten_keys_total"
    ~help:"Evicted packet keys forgotten after the late-fragment retention window."

let g_frontier =
  Obs.Metrics.Gauge.v "refill_stream_frontier_events"
    ~help:"Records currently buffered in the streaming frontier."

let g_peak =
  Obs.Metrics.Gauge.v "refill_stream_peak_frontier_events"
    ~help:"High-water mark of buffered records in the streaming frontier."

type outcome = Complete | Incomplete

type emitted = { flow : Flow.t; outcome : outcome }

type summary = {
  events : int;
  segments : int;
  flows : int;
  complete : int;
  incomplete : int;
  evictions : int;
  late_fragments : int;
  forgotten_keys : int;
  frontier_events : int;
  peak_frontier_events : int;
}

(* One open packet.  [records_rev] is arrival order, reversed; [last_seen]
   is the global stream position of the newest record — the only deadline
   queue entry for this buffer that is still meaningful. *)
type buffer = {
  b_origin : int;
  b_seq : int;
  mutable records_rev : Logsys.Record.t list;
  mutable count : int;
  mutable last_seen : int;
  b_late : bool;
  mutable live : bool;
}

let compare_key (ao, as_) (bo, bs) =
  match Int.compare ao bo with 0 -> Int.compare as_ bs | c -> c

(* Evicted-table entries, ordered by eviction trigger then key. *)
let compare_evicted (ka, ta) (kb, tb) =
  match Int.compare ta tb with 0 -> compare_key ka kb | c -> c

type t = {
  sink : int;
  use_intra : bool;
  use_inter : bool;
  provenance : bool;
  watermark : int;
  retention : int;
  publish_gauges : bool;
  emit : final:bool -> last_seen:int -> key:int * int -> emitted -> unit;
  frontier : (int * int, buffer) Hashtbl.t;
  (* key -> eviction trigger (the global position [last_seen + watermark]
     at which the key was evicted).  Bounded: a key is forgotten once the
     clock passes [trigger + retention]. *)
  evicted : (int * int, int) Hashtbl.t;
  (* (arrival position, buffer) in arrival order; entries are invalidated
     lazily — one is acted on only if it is still the buffer's newest. *)
  deadlines : (int * buffer) Queue.t;
  (* (trigger, key) in eviction order (ascending trigger); stale entries
     (key re-evicted with a newer trigger, or already forgotten lazily)
     are skipped when popped. *)
  prune : (int * (int * int)) Queue.t;
  (* Global stream position this stream has observed.  Equal to
     [processed] on the single-domain path; ahead of it on a shard worker,
     which only ingests its own keys but hears every position tick. *)
  mutable clock : int;
  mutable processed : int;
  mutable segments : int;
  mutable flows : int;
  mutable complete : int;
  mutable incomplete : int;
  mutable evictions : int;
  mutable late_fragments : int;
  mutable forgotten : int;
  mutable frontier_events : int;
  mutable peak_frontier_events : int;
  mutable finished : bool;
}

let summary t =
  {
    events = t.processed;
    segments = t.segments;
    flows = t.flows;
    complete = t.complete;
    incomplete = t.incomplete;
    evictions = t.evictions;
    late_fragments = t.late_fragments;
    forgotten_keys = t.forgotten;
    frontier_events = t.frontier_events;
    peak_frontier_events = t.peak_frontier_events;
  }

let processed t = t.processed

let make ~use_intra ~use_inter ~provenance ~watermark ~retention
    ~publish_gauges ~sink ~emit () =
  {
    sink;
    use_intra;
    use_inter;
    provenance;
    watermark;
    retention;
    publish_gauges;
    emit;
    frontier = Hashtbl.create 256;
    evicted = Hashtbl.create 1024;
    deadlines = Queue.create ();
    prune = Queue.create ();
    clock = 0;
    processed = 0;
    segments = 0;
    flows = 0;
    complete = 0;
    incomplete = 0;
    evictions = 0;
    late_fragments = 0;
    forgotten = 0;
    frontier_events = 0;
    peak_frontier_events = 0;
    finished = false;
  }

let wrap_emit emit ~final:_ ~last_seen:_ ~key:_ e = emit e

let create ?(config = Config.default) ~sink ~emit () =
  make ~use_intra:config.Config.use_intra ~use_inter:config.Config.use_inter
    ~provenance:config.Config.provenance ~watermark:config.Config.watermark
    ~retention:(Config.resolved_retention config) ~publish_gauges:true ~sink
    ~emit:(wrap_emit emit) ()

(* Batched per feed/finish call, like the engine does per run: counter
   deltas sum correctly across shard workers, but the frontier gauges are
   only published by single-domain streams — [Sharded] publishes the
   aggregate itself. *)
let flush_metrics t (before : summary) =
  let after = summary t in
  Par.with_obs_lock (fun () ->
      let d get = get after - get before in
      let inc c by = if by > 0 then Obs.Metrics.Counter.inc ~by c in
      inc c_events (d (fun s -> s.events));
      inc c_segments (d (fun s -> s.segments));
      inc c_flows (d (fun s -> s.flows));
      inc c_evictions (d (fun s -> s.evictions));
      inc c_incomplete (d (fun s -> s.incomplete));
      inc c_forgotten (d (fun s -> s.forgotten_keys));
      if t.publish_gauges then begin
        Obs.Metrics.Gauge.set g_frontier (float_of_int after.frontier_events);
        Obs.Metrics.Gauge.set g_peak
          (float_of_int after.peak_frontier_events)
      end)

let evict t ~final buf =
  buf.live <- false;
  Hashtbl.remove t.frontier (buf.b_origin, buf.b_seq);
  if not final then begin
    (* The trigger is the canonical eviction position — a function of the
       buffer alone, not of how far this stream's clock had jumped when
       drain caught it, so forgetting behaves identically at any shard
       count.  [last_seen + watermark <= clock] here, so no overflow. *)
    let trigger = buf.last_seen + t.watermark in
    Hashtbl.replace t.evicted (buf.b_origin, buf.b_seq) trigger;
    Queue.push (trigger, (buf.b_origin, buf.b_seq)) t.prune;
    t.evictions <- t.evictions + 1
  end;
  t.frontier_events <- t.frontier_events - buf.count;
  (* Restore the batch index's node-scan order: stable sort by node over
     arrival order keeps each node's local write order. *)
  let records =
    Array.of_list
      (List.stable_sort
         (fun (a : Logsys.Record.t) (b : Logsys.Record.t) ->
           Int.compare a.node b.node)
         (List.rev buf.records_rev))
  in
  let flow =
    Reconstruct.of_records ~use_intra:t.use_intra ~use_inter:t.use_inter
      ~provenance:t.provenance records ~origin:buf.b_origin ~seq:buf.b_seq
      ~sink:t.sink
  in
  let outcome =
    if buf.b_late then Incomplete
    else if final then Complete
    else if (Classify.classify flow).cause <> Logsys.Cause.Unknown then
      Complete
    else Incomplete
  in
  t.flows <- t.flows + 1;
  (match outcome with
  | Complete -> t.complete <- t.complete + 1
  | Incomplete -> t.incomplete <- t.incomplete + 1);
  t.emit ~final ~last_seen:buf.last_seen
    ~key:(buf.b_origin, buf.b_seq)
    { flow; outcome }

let drain t =
  let limit = t.clock - t.watermark in
  let continue = ref true in
  while !continue do
    match Queue.peek_opt t.deadlines with
    | Some (pos, buf) when pos <= limit ->
        ignore (Queue.pop t.deadlines);
        if buf.live && buf.last_seen = pos then evict t ~final:false buf
    | _ -> continue := false
  done;
  (* Forget evicted keys whose retention window has passed; stale queue
     entries (superseded trigger, or removed lazily on re-arrival) are
     skipped. *)
  let flimit = t.clock - t.retention in
  let continue = ref true in
  while !continue do
    match Queue.peek_opt t.prune with
    | Some (trigger, key) when trigger <= flimit ->
        ignore (Queue.pop t.prune);
        (match Hashtbl.find_opt t.evicted key with
        | Some tr when tr = trigger ->
            Hashtbl.remove t.evicted key;
            t.forgotten <- t.forgotten + 1
        | _ -> ())
    | _ -> continue := false
  done

(* Ingest one record at global stream position [pos].  The frontier must
   first be drained to [pos - 1] — the state a single-domain stream would
   be in when this record arrives — so that a shard worker whose clock
   jumps over positions owned by other shards still makes the same
   join-or-late decision for the key. *)
let push t ~pos (r : Logsys.Record.t) =
  if pos - 1 > t.clock then begin
    t.clock <- pos - 1;
    drain t
  end;
  t.processed <- t.processed + 1;
  if pos > t.clock then t.clock <- pos;
  let key = (r.origin, r.pkt_seq) in
  let buf =
    match Hashtbl.find_opt t.frontier key with
    | Some b -> b
    | None ->
        let late =
          match Hashtbl.find_opt t.evicted key with
          | None -> false
          | Some trigger ->
              if trigger <= t.clock - t.retention then begin
                Hashtbl.remove t.evicted key;
                t.forgotten <- t.forgotten + 1;
                false
              end
              else true
        in
        if late then t.late_fragments <- t.late_fragments + 1;
        let b =
          {
            b_origin = r.origin;
            b_seq = r.pkt_seq;
            records_rev = [];
            count = 0;
            last_seen = 0;
            b_late = late;
            live = true;
          }
        in
        Hashtbl.replace t.frontier key b;
        b
  in
  buf.records_rev <- r :: buf.records_rev;
  buf.count <- buf.count + 1;
  buf.last_seen <- pos;
  Queue.push (pos, buf) t.deadlines;
  t.frontier_events <- t.frontier_events + 1;
  if t.frontier_events > t.peak_frontier_events then
    t.peak_frontier_events <- t.frontier_events;
  drain t

(* Advance the clock without ingesting — how a shard worker hears about
   positions routed to its siblings. *)
let advance t c =
  if c > t.clock then begin
    t.clock <- c;
    drain t
  end

let feed t segment =
  if t.finished then invalid_arg "Stream.feed: stream already finished";
  let before = summary t in
  t.segments <- t.segments + 1;
  Array.iter
    (fun (r : Logsys.Record.t) ->
      if r.node >= 0 then push t ~pos:(t.clock + 1) r)
    segment;
  flush_metrics t before

(* [feed] over an arena slice: the node filter reads the column, and only
   surviving records materialize (the frontier stores [Record.t]s, so
   eviction, checkpointing and emission are unchanged — output is
   byte-identical to feeding the materialized slice). *)
let feed_arena t (s : Logsys.Arena.slice) =
  if t.finished then invalid_arg "Stream.feed: stream already finished";
  let before = summary t in
  t.segments <- t.segments + 1;
  let a = s.Logsys.Arena.sl_base in
  for i = s.Logsys.Arena.sl_off to s.Logsys.Arena.sl_off + s.Logsys.Arena.sl_len - 1 do
    if Logsys.Arena.node a i >= 0 then
      push t ~pos:(t.clock + 1) (Logsys.Arena.get a i)
  done;
  flush_metrics t before

let finish t =
  if not t.finished then begin
    t.finished <- true;
    let before = summary t in
    let bufs = Hashtbl.fold (fun _ b acc -> b :: acc) t.frontier [] in
    let bufs =
      List.sort
        (fun a b -> compare_key (a.b_origin, a.b_seq) (b.b_origin, b.b_seq))
        bufs
    in
    List.iter (fun b -> if b.live then evict t ~final:true b) bufs;
    Queue.clear t.deadlines;
    flush_metrics t before
  end;
  summary t

(* -- Checkpointing --------------------------------------------------------- *)

let ckpt_magic_v1 = "# refill-stream-ckpt v1"
let ckpt_magic_v2 = "# refill-stream-ckpt v2"

let write_checkpoint oc ~use_intra ~use_inter ~provenance ~watermark
    ~retention ~segments ~clock streams =
  Printf.fprintf oc "%s\n" ckpt_magic_v2;
  Printf.fprintf oc "# shards %d\n" (Array.length streams);
  let b v = if v then 1 else 0 in
  Printf.fprintf oc "# use-intra %d\n" (b use_intra);
  Printf.fprintf oc "# use-inter %d\n" (b use_inter);
  Printf.fprintf oc "# provenance %d\n" (b provenance);
  Printf.fprintf oc "# watermark %d\n" watermark;
  Printf.fprintf oc "# retention %d\n" retention;
  Printf.fprintf oc "# segments %d\n" segments;
  Printf.fprintf oc "# clock %d\n" clock;
  Array.iteri
    (fun i st ->
      Printf.fprintf oc "# shard %d\n" i;
      Printf.fprintf oc "# processed %d\n" st.processed;
      Printf.fprintf oc "# flows %d\n" st.flows;
      Printf.fprintf oc "# complete %d\n" st.complete;
      Printf.fprintf oc "# incomplete %d\n" st.incomplete;
      Printf.fprintf oc "# evictions %d\n" st.evictions;
      Printf.fprintf oc "# late-fragments %d\n" st.late_fragments;
      Printf.fprintf oc "# forgotten %d\n" st.forgotten;
      Printf.fprintf oc "# peak-frontier %d\n" st.peak_frontier_events;
      let ev = Hashtbl.fold (fun k tr acc -> (k, tr) :: acc) st.evicted [] in
      let ev = List.sort compare_evicted ev in
      List.iter
        (fun ((origin, seq), trigger) ->
          Printf.fprintf oc "e %d %d %d\n" origin seq trigger)
        ev;
      (* Buffers ascending by last_seen: resume pushes one deadline entry
         per buffer in this order, which reproduces the live queue's
         effective contents (all superseded entries are no-ops anyway). *)
      let bufs = Hashtbl.fold (fun _ b acc -> b :: acc) st.frontier [] in
      let bufs =
        List.sort (fun a b -> Int.compare a.last_seen b.last_seen) bufs
      in
      List.iter
        (fun b ->
          Printf.fprintf oc "b %d %d %d %d %d\n" b.b_origin b.b_seq
            b.last_seen
            (if b.b_late then 1 else 0)
            b.count;
          List.iter
            (fun r ->
              output_string oc (Logsys.Log_io.record_to_line_exact r ^ "\n"))
            (List.rev b.records_rev))
        bufs)
    streams

let checkpoint t oc =
  write_checkpoint oc ~use_intra:t.use_intra ~use_inter:t.use_inter
    ~provenance:t.provenance ~watermark:t.watermark ~retention:t.retention
    ~segments:t.segments ~clock:t.clock [| t |]

let checkpoint_file t path =
  match open_out path with
  | exception Sys_error message -> Error (Error.Io { path; message })
  | oc ->
      Fun.protect
        ~finally:(fun () -> close_out oc)
        (fun () -> checkpoint t oc);
      Ok ()

(* -- Checkpoint parsing ---------------------------------------------------- *)

type rshard = {
  mutable rs_processed : int;
  mutable rs_flows : int;
  mutable rs_complete : int;
  mutable rs_incomplete : int;
  mutable rs_evictions : int;
  mutable rs_late : int;
  mutable rs_forgotten : int;
  mutable rs_peak : int;
  mutable rs_evicted : ((int * int) * int) list;
  mutable rs_buffers : buffer list;
}

type restored = {
  r_flags : (bool * bool * bool) option;  (* None for v1 checkpoints *)
  r_watermark : int;
  r_retention : int option;  (* None for v1 checkpoints *)
  r_segments : int;
  r_clock : int;
  r_shards : rshard array;
}

let fresh_rshard () =
  {
    rs_processed = 0;
    rs_flows = 0;
    rs_complete = 0;
    rs_incomplete = 0;
    rs_evictions = 0;
    rs_late = 0;
    rs_forgotten = 0;
    rs_peak = 0;
    rs_evicted = [];
    rs_buffers = [];
  }

let int_field line key =
  match String.split_on_char ' ' line with
  | [ "#"; k; v ] when k = key -> (
      match Logsys.Log_io.int_of_decimal v with
      | n -> n
      | exception Failure _ ->
          failwith (Printf.sprintf "Stream: bad %s value %S" key v))
  | _ -> failwith (Printf.sprintf "Stream: expected '# %s N', got %S" key line)

let flag_field line key =
  match int_field line key with
  | 0 -> false
  | 1 -> true
  | n -> failwith (Printf.sprintf "Stream: bad %s flag %d" key n)

(* Evicted/buffer lines of one shard section, until EOF or the next
   [# shard] header.  [v1_trigger = Some p] selects the v1 two-field
   evicted-line shape, restoring every key with trigger [p]. *)
let parse_shard_body rs ~v1_trigger next_line peek_line =
  let is_shard_header line =
    String.length line >= 7 && String.sub line 0 7 = "# shard"
  in
  let continue = ref true in
  while !continue do
    match peek_line () with
    | None -> continue := false
    | Some line when is_shard_header line -> continue := false
    | Some _ -> (
        let line = next_line () in
        if String.length line = 0 then ()
        else
          match line.[0] with
          | 'e' -> (
              (* Checkpoint integers are plain decimal, like the dump's. *)
              let int = Logsys.Log_io.int_of_decimal in
              match (String.split_on_char ' ' line, v1_trigger) with
              | [ "e"; origin; seq; trigger ], None ->
                  rs.rs_evicted <-
                    ((int origin, int seq), int trigger) :: rs.rs_evicted
              | [ "e"; origin; seq ], Some trigger ->
                  rs.rs_evicted <-
                    ((int origin, int seq), trigger) :: rs.rs_evicted
              | _ ->
                  failwith
                    (Printf.sprintf "Stream: malformed evicted line %S" line))
          | 'b' -> (
              match String.split_on_char ' ' line with
              | [ "b"; origin; seq; last_seen; late; count ] ->
                  let int = Logsys.Log_io.int_of_decimal in
                  let origin = int origin
                  and seq = int seq
                  and last_seen = int last_seen
                  and count = int count in
                  if count <= 0 then failwith "Stream: empty checkpoint buffer";
                  let late =
                    match late with
                    | "0" -> false
                    | "1" -> true
                    | _ ->
                        failwith
                          (Printf.sprintf "Stream: bad late flag %S" late)
                  in
                  let records_rev = ref [] in
                  for _ = 1 to count do
                    records_rev :=
                      Logsys.Log_io.record_of_line (next_line ())
                      :: !records_rev
                  done;
                  rs.rs_buffers <-
                    {
                      b_origin = origin;
                      b_seq = seq;
                      records_rev = !records_rev;
                      count;
                      last_seen;
                      b_late = late;
                      live = true;
                    }
                    :: rs.rs_buffers
              | _ ->
                  failwith
                    (Printf.sprintf "Stream: malformed buffer line %S" line))
          | _ -> failwith (Printf.sprintf "Stream: malformed line %S" line))
  done

let parse_checkpoint ic =
  let peeked = ref None in
  let next_line () =
    match !peeked with
    | Some l ->
        peeked := None;
        l
    | None -> input_line ic
  in
  let peek_line () =
    match !peeked with
    | Some l -> Some l
    | None -> (
        match input_line ic with
        | exception End_of_file -> None
        | l ->
            peeked := Some l;
            Some l)
  in
  let magic = next_line () in
  if magic = ckpt_magic_v1 then begin
    let rs = fresh_rshard () in
    rs.rs_processed <- int_field (next_line ()) "processed";
    let watermark = int_field (next_line ()) "watermark" in
    let segments = int_field (next_line ()) "segments" in
    rs.rs_flows <- int_field (next_line ()) "flows";
    rs.rs_complete <- int_field (next_line ()) "complete";
    rs.rs_incomplete <- int_field (next_line ()) "incomplete";
    rs.rs_evictions <- int_field (next_line ()) "evictions";
    rs.rs_late <- int_field (next_line ()) "late-fragments";
    rs.rs_peak <- int_field (next_line ()) "peak-frontier";
    parse_shard_body rs ~v1_trigger:(Some rs.rs_processed) next_line
      peek_line;
    {
      r_flags = None;
      r_watermark = watermark;
      r_retention = None;
      r_segments = segments;
      r_clock = rs.rs_processed;
      r_shards = [| rs |];
    }
  end
  else if magic = ckpt_magic_v2 then begin
    let shards = int_field (next_line ()) "shards" in
    if shards < 1 || shards > 65536 then
      failwith (Printf.sprintf "Stream: implausible shard count %d" shards);
    let use_intra = flag_field (next_line ()) "use-intra" in
    let use_inter = flag_field (next_line ()) "use-inter" in
    let provenance = flag_field (next_line ()) "provenance" in
    let watermark = int_field (next_line ()) "watermark" in
    let retention = int_field (next_line ()) "retention" in
    let segments = int_field (next_line ()) "segments" in
    let clock = int_field (next_line ()) "clock" in
    let r_shards = Array.init shards (fun _ -> fresh_rshard ()) in
    for i = 0 to shards - 1 do
      let hdr = next_line () in
      (match String.split_on_char ' ' hdr with
      | [ "#"; "shard"; k ] when k = string_of_int i -> ()
      | _ ->
          failwith
            (Printf.sprintf "Stream: expected '# shard %d', got %S" i hdr));
      let rs = r_shards.(i) in
      rs.rs_processed <- int_field (next_line ()) "processed";
      rs.rs_flows <- int_field (next_line ()) "flows";
      rs.rs_complete <- int_field (next_line ()) "complete";
      rs.rs_incomplete <- int_field (next_line ()) "incomplete";
      rs.rs_evictions <- int_field (next_line ()) "evictions";
      rs.rs_late <- int_field (next_line ()) "late-fragments";
      rs.rs_forgotten <- int_field (next_line ()) "forgotten";
      rs.rs_peak <- int_field (next_line ()) "peak-frontier";
      parse_shard_body rs ~v1_trigger:None next_line peek_line
    done;
    (match peek_line () with
    | None -> ()
    | Some l -> failwith (Printf.sprintf "Stream: trailing line %S" l));
    {
      r_flags = Some (use_intra, use_inter, provenance);
      r_watermark = watermark;
      r_retention = Some retention;
      r_segments = segments;
      r_clock = clock;
      r_shards;
    }
  end
  else failwith (Printf.sprintf "Stream: bad checkpoint header %S" magic)

(* Reject nonsensical headers before building anything: a stream restored
   from garbage would run with a garbage drain limit. *)
let validate_restored r =
  let fail msg = failwith ("Stream: bad checkpoint: " ^ msg) in
  if r.r_watermark <= 0 then fail "non-positive watermark";
  (match r.r_retention with
  | Some ret when ret < 0 -> fail "negative retention"
  | _ -> ());
  if r.r_segments < 0 then fail "negative segments";
  if r.r_clock < 0 then fail "negative clock";
  let total = ref 0 in
  Array.iter
    (fun rs ->
      if rs.rs_processed < 0 then fail "negative processed";
      total := !total + rs.rs_processed;
      if rs.rs_flows < 0 || rs.rs_complete < 0 || rs.rs_incomplete < 0 then
        fail "negative flow counter";
      if rs.rs_flows <> rs.rs_complete + rs.rs_incomplete then
        fail "flows disagree with complete + incomplete";
      if rs.rs_evictions < 0 || rs.rs_late < 0 || rs.rs_forgotten < 0 then
        fail "negative counter";
      let events =
        List.fold_left (fun acc b -> acc + b.count) 0 rs.rs_buffers
      in
      if rs.rs_peak < events then fail "peak-frontier below restored frontier";
      List.iter
        (fun (_, trigger) ->
          if trigger < 1 || trigger > r.r_clock then
            fail "evicted trigger out of range")
        rs.rs_evicted;
      List.iter
        (fun b ->
          if b.last_seen < 1 || b.last_seen > r.r_clock then
            fail "buffer last-seen out of range")
        rs.rs_buffers)
    r.r_shards;
  if !total <> r.r_clock then fail "shard record totals disagree with clock"

(* The semantic flags a resumed stream runs under: the checkpoint's when
   it has them (v2) and no config was passed; the config's for a v1
   checkpoint; an explicit config conflicting with a v2 checkpoint is an
   error — resuming under different semantics silently changes what the
   reconstruction means. *)
let resolve_flags ~ckpt ~config =
  match (ckpt, config) with
  | Some f, None -> f
  | Some ((ui, ue, pv) as f), Some (c : Config.t) ->
      if
        c.Config.use_intra <> ui
        || c.Config.use_inter <> ue
        || c.Config.provenance <> pv
      then
        failwith
          (Printf.sprintf
             "Stream: config conflicts with checkpoint semantics \
              (checkpoint: use-intra=%b use-inter=%b provenance=%b)"
             ui ue pv)
      else f
  | None, Some (c : Config.t) ->
      (c.Config.use_intra, c.Config.use_inter, c.Config.provenance)
  | None, None ->
      Config.
        (default.use_intra, default.use_inter, default.provenance)

let restored_retention r ~config =
  match r.r_retention with
  | Some ret -> ret
  | None ->
      let cfg = Option.value config ~default:Config.default in
      Config.resolved_retention { cfg with Config.watermark = r.r_watermark }

(* Install evicted keys and buffers into a freshly [make]d stream.  Both
   lists must be given in canonical order: evicted ascending by (trigger,
   key), buffers ascending by last_seen. *)
let install t ~ev ~bufs =
  List.iter
    (fun (key, trigger) ->
      Hashtbl.replace t.evicted key trigger;
      Queue.push (trigger, key) t.prune)
    ev;
  List.iter
    (fun b ->
      Hashtbl.replace t.frontier (b.b_origin, b.b_seq) b;
      Queue.push (b.last_seen, b) t.deadlines;
      t.frontier_events <- t.frontier_events + b.count)
    bufs

let sorted_evicted rss =
  List.sort compare_evicted
    (List.concat_map (fun rs -> rs.rs_evicted) rss)

let sorted_buffers rss =
  List.sort
    (fun a b -> Int.compare a.last_seen b.last_seen)
    (List.concat_map (fun rs -> rs.rs_buffers) rss)

let as_bad_checkpoint f =
  match f () with
  | t -> Ok t
  | exception Failure message ->
      Error (Error.Bad_checkpoint { source = "checkpoint"; message })
  | exception End_of_file ->
      Error
        (Error.Bad_checkpoint
           { source = "checkpoint"; message = "truncated checkpoint" })
  | exception Sys_error message ->
      Error (Error.Io { path = "checkpoint"; message })

(* Resume into a single-domain stream: all shards of the checkpoint merge
   into one frontier (v2 multi-shard checkpoints are the sharded layer's;
   any shard count resumes into any other, including one). *)
let resume ?config ic ~sink ~emit =
  as_bad_checkpoint (fun () ->
      let r = parse_checkpoint ic in
      validate_restored r;
      let ui, ue, pv = resolve_flags ~ckpt:r.r_flags ~config in
      let retention = restored_retention r ~config in
      let t =
        make ~use_intra:ui ~use_inter:ue ~provenance:pv
          ~watermark:r.r_watermark ~retention ~publish_gauges:true ~sink
          ~emit:(wrap_emit emit) ()
      in
      t.clock <- r.r_clock;
      t.processed <- r.r_clock;
      t.segments <- r.r_segments;
      let peak = ref 0 in
      Array.iter
        (fun rs ->
          t.flows <- t.flows + rs.rs_flows;
          t.complete <- t.complete + rs.rs_complete;
          t.incomplete <- t.incomplete + rs.rs_incomplete;
          t.evictions <- t.evictions + rs.rs_evictions;
          t.late_fragments <- t.late_fragments + rs.rs_late;
          t.forgotten <- t.forgotten + rs.rs_forgotten;
          peak := !peak + rs.rs_peak)
        r.r_shards;
      let rss = Array.to_list r.r_shards in
      install t ~ev:(sorted_evicted rss) ~bufs:(sorted_buffers rss);
      t.peak_frontier_events <- max !peak t.frontier_events;
      t)

let resume_file ?config path ~sink ~emit =
  match open_in path with
  | exception Sys_error message -> Error (Error.Io { path; message })
  | ic ->
      Fun.protect
        ~finally:(fun () -> close_in ic)
        (fun () -> resume ?config ic ~sink ~emit)

(* -- Sharded streaming ----------------------------------------------------- *)

module Sharded = struct
  (* Bounded SPSC channel: the feeder blocks when a worker falls behind
     (backpressure, bounded memory), the worker blocks when idle.  On a
     machine with fewer cores than shards this degrades to cooperative
     scheduling, not spinning. *)
  module Chan = struct
    type 'a chan = {
      q : 'a Queue.t;
      cap : int;
      mu : Mutex.t;
      not_empty : Condition.t;
      not_full : Condition.t;
    }

    let create cap =
      {
        q = Queue.create ();
        cap;
        mu = Mutex.create ();
        not_empty = Condition.create ();
        not_full = Condition.create ();
      }

    let push c x =
      Mutex.lock c.mu;
      while Queue.length c.q >= c.cap do
        Condition.wait c.not_full c.mu
      done;
      Queue.push x c.q;
      Condition.signal c.not_empty;
      Mutex.unlock c.mu

    let pop c =
      Mutex.lock c.mu;
      while Queue.is_empty c.q do
        Condition.wait c.not_empty c.mu
      done;
      let x = Queue.pop c.q in
      Condition.signal c.not_full;
      Mutex.unlock c.mu;
      x
  end

  type msg =
    | Records of (int * Logsys.Record.t) array
        (** (global position, record), positions ascending. *)
    | Tick of int  (** advance the worker clock to this position *)
    | Stop of int  (** final clock; the worker exits its loop *)

  type pending = {
    p_last_seen : int;
    p_final : bool;
    p_key : int * int;
    p_emitted : emitted;
  }

  type worker = {
    w_stream : t;
    w_chan : msg Chan.chan;
    w_mu : Mutex.t;
    w_cond : Condition.t;
    w_outbox : pending list ref;  (* newest first; under [w_mu] *)
    mutable w_clock : int;  (* published position; under [w_mu] *)
    mutable w_error : exn option;  (* under [w_mu] *)
    mutable w_domain : unit Domain.t option;
  }

  type state = Live | Done of summary | Failed of exn

  type nonrec t = {
    sh_watermark : int;
    sh_emit : emitted -> unit;
    sh_workers : worker array;
    mutable sh_clock : int;  (* global records routed so far *)
    mutable sh_segments : int;
    mutable sh_pending : pending list;
    mutable sh_state : state;
  }

  let shard_of (origin, seq) n =
    if n = 1 then 0
    else ((origin * 0x9E3779B1) lxor (seq * 0x85EBCA6B)) land max_int mod n

  let worker_loop w =
    let running = ref true in
    while !running do
      let msg = Chan.pop w.w_chan in
      let target =
        match msg with
        | Records items ->
            if Array.length items = 0 then w.w_stream.clock
            else fst items.(Array.length items - 1)
        | Tick c | Stop c -> c
      in
      (match msg with Stop _ -> running := false | _ -> ());
      Mutex.lock w.w_mu;
      let errored = w.w_error <> None in
      Mutex.unlock w.w_mu;
      (* After an error the worker keeps draining (and discarding) so the
         feeder never blocks on a full queue; the clock still advances so
         quiesce terminates. *)
      if not errored then begin
        try
          let st = w.w_stream in
          let before = summary st in
          (match msg with
          | Records items -> Array.iter (fun (pos, r) -> push st ~pos r) items
          | Tick c | Stop c -> advance st c);
          flush_metrics st before
        with e ->
          Mutex.lock w.w_mu;
          w.w_error <- Some e;
          Mutex.unlock w.w_mu
      end;
      Mutex.lock w.w_mu;
      if target > w.w_clock then w.w_clock <- target;
      Condition.broadcast w.w_cond;
      Mutex.unlock w.w_mu
    done

  (* [init] populates the worker's stream (resume restores shard state)
     before the domain starts — no synchronization needed. *)
  let spawn_worker ~flags:(ui, ue, pv) ~watermark ~retention ~sink ~init =
    let mu = Mutex.create () in
    let outbox = ref [] in
    let emit ~final ~last_seen ~key e =
      Mutex.lock mu;
      outbox :=
        { p_last_seen = last_seen; p_final = final; p_key = key; p_emitted = e }
        :: !outbox;
      Mutex.unlock mu
    in
    let st =
      make ~use_intra:ui ~use_inter:ue ~provenance:pv ~watermark ~retention
        ~publish_gauges:false ~sink ~emit ()
    in
    init st;
    (* Shard workers query the shared role FSMs concurrently, so their
       memo caches must be complete before the first worker starts; once
       complete, this call only reads them. *)
    Protocol.precompute_fsms ();
    let w =
      {
        w_stream = st;
        w_chan = Chan.create 8;
        w_mu = mu;
        w_cond = Condition.create ();
        w_outbox = outbox;
        w_clock = st.clock;
        w_error = None;
        w_domain = None;
      }
    in
    w.w_domain <- Some (Domain.spawn (fun () -> worker_loop w));
    w

  let read_clock w =
    Mutex.lock w.w_mu;
    let c = w.w_clock in
    Mutex.unlock w.w_mu;
    c

  let shutdown sh =
    Array.iter (fun w -> Chan.push w.w_chan (Stop sh.sh_clock)) sh.sh_workers;
    Array.iter
      (fun w ->
        match w.w_domain with
        | Some d ->
            Domain.join d;
            w.w_domain <- None
        | None -> ())
      sh.sh_workers

  let first_error sh =
    Array.fold_left
      (fun acc w ->
        match acc with
        | Some _ -> acc
        | None ->
            Mutex.lock w.w_mu;
            let e = w.w_error in
            Mutex.unlock w.w_mu;
            e)
      None sh.sh_workers

  let check_workers sh =
    match first_error sh with
    | None -> ()
    | Some e ->
        sh.sh_state <- Failed e;
        shutdown sh;
        raise e

  (* Release every pending mid-stream eviction that can no longer be
     preceded by anything: clocks are read BEFORE outboxes, so a worker's
     future emissions all have last_seen > safe - watermark — anything at
     or below that line is already in an outbox we are about to take.
     Released ascending by last_seen, which is exactly the single-domain
     emission order (positions are unique, and eviction triggers are
     monotone in last_seen). *)
  let combine sh =
    let safe =
      Array.fold_left
        (fun acc w -> min acc (read_clock w))
        max_int sh.sh_workers
    in
    Array.iter
      (fun w ->
        Mutex.lock w.w_mu;
        let out = !(w.w_outbox) in
        w.w_outbox := [];
        Mutex.unlock w.w_mu;
        sh.sh_pending <- List.rev_append out sh.sh_pending)
      sh.sh_workers;
    let limit = safe - sh.sh_watermark in
    let ready, rest =
      List.partition
        (fun p -> (not p.p_final) && p.p_last_seen <= limit)
        sh.sh_pending
    in
    sh.sh_pending <- rest;
    let ready =
      List.sort (fun a b -> Int.compare a.p_last_seen b.p_last_seen) ready
    in
    List.iter (fun p -> sh.sh_emit p.p_emitted) ready

  (* Wait until every worker has processed up to the feeder's clock; after
     this the feeder may read worker stream state directly (the workers
     are parked in [Chan.pop], and the [w_mu] handshake ordered their
     writes before our reads). *)
  let quiesce sh =
    Array.iter
      (fun w ->
        Mutex.lock w.w_mu;
        while w.w_clock < sh.sh_clock && w.w_error = None do
          Condition.wait w.w_cond w.w_mu
        done;
        Mutex.unlock w.w_mu)
      sh.sh_workers;
    check_workers sh

  let aggregate sh =
    Array.fold_left
      (fun acc w ->
        let s = summary w.w_stream in
        {
          events = acc.events + s.events;
          segments = acc.segments;
          flows = acc.flows + s.flows;
          complete = acc.complete + s.complete;
          incomplete = acc.incomplete + s.incomplete;
          evictions = acc.evictions + s.evictions;
          late_fragments = acc.late_fragments + s.late_fragments;
          forgotten_keys = acc.forgotten_keys + s.forgotten_keys;
          frontier_events = acc.frontier_events + s.frontier_events;
          peak_frontier_events =
            acc.peak_frontier_events + s.peak_frontier_events;
        })
      {
        events = 0;
        segments = sh.sh_segments;
        flows = 0;
        complete = 0;
        incomplete = 0;
        evictions = 0;
        late_fragments = 0;
        forgotten_keys = 0;
        frontier_events = 0;
        peak_frontier_events = 0;
      }
      sh.sh_workers

  let publish_aggregate_gauges (s : summary) =
    Par.with_obs_lock (fun () ->
        Obs.Metrics.Gauge.set g_frontier (float_of_int s.frontier_events);
        Obs.Metrics.Gauge.set g_peak (float_of_int s.peak_frontier_events))

  let create ?(config = Config.default) ~sink ~emit () =
    let n = max 1 config.Config.shards in
    let flags =
      (config.Config.use_intra, config.Config.use_inter,
       config.Config.provenance)
    in
    let retention = Config.resolved_retention config in
    let workers =
      Array.init n (fun _ ->
          spawn_worker ~flags ~watermark:config.Config.watermark ~retention
            ~sink ~init:ignore)
    in
    {
      sh_watermark = config.Config.watermark;
      sh_emit = emit;
      sh_workers = workers;
      sh_clock = 0;
      sh_segments = 0;
      sh_pending = [];
      sh_state = Live;
    }

  let shards sh = Array.length sh.sh_workers
  let processed sh = sh.sh_clock

  let feed sh segment =
    (match sh.sh_state with
    | Live -> ()
    | Done _ -> invalid_arg "Stream.Sharded.feed: stream already finished"
    | Failed e -> raise e);
    check_workers sh;
    sh.sh_segments <- sh.sh_segments + 1;
    let n = Array.length sh.sh_workers in
    let parts = Array.make n [] in
    Array.iter
      (fun (r : Logsys.Record.t) ->
        if r.node >= 0 then begin
          sh.sh_clock <- sh.sh_clock + 1;
          let s = shard_of (r.origin, r.pkt_seq) n in
          parts.(s) <- (sh.sh_clock, r) :: parts.(s)
        end)
      segment;
    Array.iteri
      (fun i items ->
        match items with
        | [] -> ()
        | _ ->
            Chan.push sh.sh_workers.(i).w_chan
              (Records (Array.of_list (List.rev items))))
      parts;
    Array.iter (fun w -> Chan.push w.w_chan (Tick sh.sh_clock)) sh.sh_workers;
    combine sh

  let summary sh =
    match sh.sh_state with
    | Done s -> s
    | Failed e -> raise e
    | Live ->
        quiesce sh;
        combine sh;
        let s = aggregate sh in
        publish_aggregate_gauges s;
        s

  let finish sh =
    match sh.sh_state with
    | Done s -> s
    | Failed e -> raise e
    | Live ->
        shutdown sh;
        (match first_error sh with
        | Some e ->
            sh.sh_state <- Failed e;
            raise e
        | None -> ());
        (* All mid-stream evictions first (safe = final clock releases
           everything), then flush the per-shard frontiers and emit the
           finals in ascending key order — the single-domain finish
           order. *)
        combine sh;
        Array.iter (fun w -> ignore (finish w.w_stream)) sh.sh_workers;
        let finals = ref [] in
        Array.iter
          (fun w ->
            finals := List.rev_append !(w.w_outbox) !finals;
            w.w_outbox := [])
          sh.sh_workers;
        let finals =
          List.sort (fun a b -> compare_key a.p_key b.p_key) !finals
        in
        List.iter (fun p -> sh.sh_emit p.p_emitted) finals;
        sh.sh_pending <- [];
        let s = aggregate sh in
        publish_aggregate_gauges s;
        sh.sh_state <- Done s;
        s

  let checkpoint sh oc =
    (match sh.sh_state with
    | Live -> ()
    | Done _ -> invalid_arg "Stream.Sharded.checkpoint: stream finished"
    | Failed e -> raise e);
    quiesce sh;
    combine sh;
    let w0 = sh.sh_workers.(0).w_stream in
    write_checkpoint oc ~use_intra:w0.use_intra ~use_inter:w0.use_inter
      ~provenance:w0.provenance ~watermark:sh.sh_watermark
      ~retention:w0.retention ~segments:sh.sh_segments ~clock:sh.sh_clock
      (Array.map (fun w -> w.w_stream) sh.sh_workers)

  let checkpoint_file sh path =
    match open_out path with
    | exception Sys_error message -> Error (Error.Io { path; message })
    | oc ->
        Fun.protect
          ~finally:(fun () -> close_out oc)
          (fun () -> checkpoint sh oc);
        Ok ()

  (* Resume re-hashes the checkpoint's shards (any count, v1 included)
     into [config.shards] fresh workers.  Aggregate counters land on
     shard 0; every worker starts at the restored clock. *)
  let resume ?config ic ~sink ~emit =
    as_bad_checkpoint (fun () ->
        let r = parse_checkpoint ic in
        validate_restored r;
        let flags = resolve_flags ~ckpt:r.r_flags ~config in
        let retention = restored_retention r ~config in
        let cfg = Option.value config ~default:Config.default in
        let n = max 1 cfg.Config.shards in
        let rss = Array.to_list r.r_shards in
        let ev = Array.make n [] and bufs = Array.make n [] in
        List.iter
          (fun ((key, _) as e) ->
            let i = shard_of key n in
            ev.(i) <- e :: ev.(i))
          (List.rev (sorted_evicted rss));
        List.iter
          (fun b ->
            let i = shard_of (b.b_origin, b.b_seq) n in
            bufs.(i) <- b :: bufs.(i))
          (List.rev (sorted_buffers rss));
        let total_peak =
          Array.fold_left (fun acc rs -> acc + rs.rs_peak) 0 r.r_shards
        in
        let init_shard i st =
          st.clock <- r.r_clock;
          install st ~ev:ev.(i) ~bufs:bufs.(i);
          if i = 0 then begin
            st.processed <- r.r_clock;
            Array.iter
              (fun rs ->
                st.flows <- st.flows + rs.rs_flows;
                st.complete <- st.complete + rs.rs_complete;
                st.incomplete <- st.incomplete + rs.rs_incomplete;
                st.evictions <- st.evictions + rs.rs_evictions;
                st.late_fragments <- st.late_fragments + rs.rs_late;
                st.forgotten <- st.forgotten + rs.rs_forgotten)
              r.r_shards;
            st.peak_frontier_events <- max total_peak st.frontier_events
          end
          else st.peak_frontier_events <- st.frontier_events
        in
        let workers =
          Array.init n (fun i ->
              spawn_worker ~flags ~watermark:r.r_watermark ~retention ~sink
                ~init:(init_shard i))
        in
        {
          sh_watermark = r.r_watermark;
          sh_emit = emit;
          sh_workers = workers;
          sh_clock = r.r_clock;
          sh_segments = r.r_segments;
          sh_pending = [];
          sh_state = Live;
        })

  let resume_file ?config path ~sink ~emit =
    match open_in path with
    | exception Sys_error message -> Error (Error.Io { path; message })
    | ic ->
        Fun.protect
          ~finally:(fun () -> close_in ic)
          (fun () -> resume ?config ic ~sink ~emit)
end
