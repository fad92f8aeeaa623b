(* The OCaml half of the perfbench benchmark (driven by perfbench/run.py):

     tool.exe frames SEED SCALE DIR
         simulate the serve workload's trace from SEED and write the
         pre-encoded wire frames the daemon under test receives;
     tool.exe trace WORKLOAD DIR TRACED
         run the workload's pipeline in-process, calling each layer's public
         functions in the order the CLI does.  Writes the reference outputs
         the output checks compare against and, when TRACED is 1, the
         per-layer metrics (DIR/layers.json) and the span trace
         (DIR/trace.json, Chrome trace_event format).

   Spans are kept in this process's memory and written once at the end.
   Refill_obs.Span's own sink stays null: installing one makes
   Reconstruct.run go serial and Global_flow add spans, so the traced run
   would measure a different program. *)

module Obs = Refill_obs
module J = Obs.Json
module Citysee = Scenario.Citysee

let now = Unix.gettimeofday
let frame_records = 128

(* -- spans ------------------------------------------------------------------ *)

type span = {
  sid : int;
  name : string;
  parent : int;  (** 0 = no parent. *)
  tid : int;
  t0 : float;
  t1 : float;
}

let spans : span list ref = ref []
let spans_mu = Mutex.create ()
let next_sid = ref 0

(* Open spans of the main thread, innermost first. *)
let stack : int list ref = ref []

let fresh_sid () =
  Mutex.protect spans_mu (fun () ->
      incr next_sid;
      !next_sid)

let close_span sid name parent t0 =
  let s =
    { sid; name; parent; tid = Thread.id (Thread.self ()); t0; t1 = now () }
  in
  Mutex.protect spans_mu (fun () -> spans := s :: !spans)

(* Time [f] as a span under the innermost open span of the main thread. *)
let span name f =
  let sid = fresh_sid () in
  let parent = match !stack with p :: _ -> p | [] -> 0 in
  stack := sid :: !stack;
  let t0 = now () in
  Fun.protect f ~finally:(fun () ->
      stack := List.tl !stack;
      close_span sid name parent t0)

(* A span on another thread, under an explicit parent; opens no scope. *)
let span_under parent name f =
  let sid = fresh_sid () in
  let t0 = now () in
  Fun.protect f ~finally:(fun () -> close_span sid name parent t0)

let dur s = s.t1 -. s.t0

(* Self time per span name: each span's duration minus its children's. *)
let self_times () =
  let child_time = Hashtbl.create 64 in
  List.iter
    (fun s ->
      if s.parent <> 0 then
        Hashtbl.replace child_time s.parent
          (dur s
          +. Option.value ~default:0. (Hashtbl.find_opt child_time s.parent)))
    !spans;
  let self = Hashtbl.create 16 in
  List.iter
    (fun s ->
      let own =
        dur s -. Option.value ~default:0. (Hashtbl.find_opt child_time s.sid)
      in
      Hashtbl.replace self s.name
        (own +. Option.value ~default:0. (Hashtbl.find_opt self s.name)))
    !spans;
  fun name -> Option.value ~default:0. (Hashtbl.find_opt self name)

(* Share of the root span's time that none of its direct children cover
   (children of one root run one after another on the main thread). *)
let uncovered_frac root =
  match List.find_opt (fun s -> s.name = root) !spans with
  | None -> 0.
  | Some r ->
      let covered =
        List.fold_left
          (fun acc s -> if s.parent = r.sid then acc +. dur s else acc)
          0. !spans
      in
      Float.max 0. (1. -. (covered /. dur r))

let write_trace path =
  let events =
    List.rev_map
      (fun s ->
        {
          Obs.Sink.name = s.name;
          cat = "perfbench";
          ph = 'X';
          ts_us = s.t0 *. 1e6;
          dur_us = dur s *. 1e6;
          tid = s.tid;
          args =
            [ ("id", string_of_int s.sid); ("parent", string_of_int s.parent) ];
        })
      !spans
  in
  let oc = open_out path in
  output_string oc (J.to_string (Obs.Sink.trace_json events));
  close_out oc

(* -- small helpers ------------------------------------------------------------ *)

(* What a layer's calls allocated, from Gc.quick_stat, which sums over
   every domain that has run so far. *)
type gc_acc = {
  mutable minor : float;
  mutable major : float;
  mutable collections : int;
}

let gc_acc () = { minor = 0.; major = 0.; collections = 0 }

let counted acc f =
  let s0 = Gc.quick_stat () in
  let r = f () in
  let s1 = Gc.quick_stat () in
  acc.minor <- acc.minor +. (s1.minor_words -. s0.minor_words);
  acc.major <- acc.major +. (s1.major_words -. s0.major_words);
  acc.collections <- acc.collections + (s1.minor_collections - s0.minor_collections);
  r

(* Nearest-rank percentile; 0 without samples. *)
let percentile p xs =
  match List.sort compare xs with
  | [] -> 0.
  | sorted ->
      let a = Array.of_list sorted in
      let n = Array.length a in
      let rank = int_of_float (Float.ceil (p *. float_of_int n)) in
      a.(max 0 (min n rank - 1))

let write_file path s =
  let oc = open_out_bin path in
  output_string oc s;
  close_out oc

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let write_json path fields =
  write_file path (J.to_string (J.Obj fields) ^ "\n")

let num x = J.Num x
let int_num i = J.Num (float_of_int i)

(* -- serve input frames ------------------------------------------------------- *)

(* The serve workload's trace: the full-scale deployment, or Citysee.tiny
   for the benchmark's own smoke test.  The 30-day dumps of the other
   workloads come from `refill simulate`. *)
let params ~seed ~smoke =
  { (if smoke then Citysee.tiny else Citysee.full_scale) with
    seed = Int64.of_int seed }

(* The tiny trace is far shorter than the default watermark, so without a
   smaller one the serve smoke run would evict nothing mid-stream. *)
let watermark ~smoke =
  if smoke then 500 else Refill.Config.default.watermark

let stream_config ~watermark ~shards =
  Refill.Config.default
  |> Refill.Config.with_watermark watermark
  |> Refill.Config.with_shards shards

(* Pre-encoded refill-wire data frames: u32be payload length, then an
   encoded segment of [frame_records] records in arrival order. *)
let frames seed scale dir =
  let smoke = scale = "smoke" in
  let t = Citysee.run (params ~seed ~smoke) in
  let collected = Citysee.collected_lossy t Logsys.Loss_model.default in
  let ordered = Logsys.Collected.merged_by_time collected in
  let n = Array.length ordered in
  let buf = Buffer.create (n * 8) in
  let frames = ref 0 in
  let off = ref 0 in
  while !off < n do
    let len = min frame_records (n - !off) in
    let payload = Logsys.Codec.encode_segment (Array.sub ordered !off len) in
    Buffer.add_int32_be buf (Int32.of_int (Bytes.length payload));
    Buffer.add_bytes buf payload;
    incr frames;
    off := !off + len
  done;
  write_file (Filename.concat dir "frames.bin") (Buffer.contents buf);
  write_json
    (Filename.concat dir "meta.json")
    [
      ("records", int_num n);
      ("sink", int_num t.sink);
      ("watermark", int_num (watermark ~smoke));
      ("frames", int_num !frames);
    ]

let read_frames dir =
  let s = read_file (Filename.concat dir "frames.bin") in
  let b = Bytes.unsafe_of_string s in
  let rec go off acc =
    if off >= Bytes.length b then List.rev acc
    else
      let len = Int32.to_int (Bytes.get_int32_be b off) in
      go (off + 4 + len) (Bytes.sub b (off + 4) len :: acc)
  in
  Array.of_list (go 0 [])

let meta_int dir key =
  match J.parse (read_file (Filename.concat dir "meta.json")) with
  | Ok j -> (
      match J.member key j with
      | Some (J.Num x) -> int_of_float x
      | _ -> failwith ("meta.json: no " ^ key))
  | Error e -> failwith ("meta.json: " ^ e)

(* -- batch-30d: analyze --global-flow ----------------------------------------- *)

let breakdown verdicts =
  let counts = Hashtbl.create 8 in
  let lost = ref 0 in
  List.iter
    (fun ((_, v) : (int * int) * Refill.Classify.verdict) ->
      if not (Logsys.Cause.equal v.cause Logsys.Cause.Delivered) then begin
        incr lost;
        let name = Logsys.Cause.name v.cause in
        Hashtbl.replace counts name
          (1 + Option.value ~default:0 (Hashtbl.find_opt counts name))
      end)
    verdicts;
  J.Obj
    [
      ("lost", int_num !lost);
      ("analyzed", int_num (List.length verdicts));
      ( "causes",
        J.Obj
          (Hashtbl.fold (fun k v acc -> (k, int_num v) :: acc) counts []
          |> List.sort compare) );
    ]

let batch dir =
  let load_gc = gc_acc () and recon_gc = gc_acc () and merge_gc = gc_acc () in
  let summary = ref Refill.Reconstruct.empty_summary in
  let check, gs =
    span "batch" @@ fun () ->
      let dump =
        span "log_io" (fun () ->
            counted load_gc (fun () ->
                Logsys.Log_io.load_file (Filename.concat dir "trace.txt")))
      in
      let flows =
        span "reconstruct" @@ fun () ->
        counted recon_gc (fun () ->
            let acc = ref [] in
            Refill.Reconstruct.run ~config:Refill.Config.default dump.collected
              ~sink:dump.sink ~emit:(fun f -> acc := f :: !acc);
            let flows = List.rev !acc in
            summary := Refill.Reconstruct.summarize flows;
            flows)
      in
      let gs =
        span "global_flow" (fun () ->
            counted merge_gc (fun () ->
                Refill.Global_flow.merge dump.collected
                  ~flows:(Array.of_list flows) ~emit:ignore))
      in
      let verdicts =
        span "classify" (fun () ->
            List.map
              (fun (f : Refill.Flow.t) ->
                ((f.origin, f.seq), Refill.Classify.classify f))
              flows)
      in
      let truth = Option.get dump.truth in
      let refined, acc_raw, acc_refined =
        span "analysis" (fun () ->
            let delivered_db =
              Logsys.Truth.fold truth ~init:[] ~f:(fun acc key fate ->
                  if Logsys.Cause.equal fate.cause Logsys.Cause.Delivered then
                    (key, fate.resolved_at) :: acc
                  else acc)
            in
            let refined =
              Analysis.Pipeline.refine_with_server ~delivered_db verdicts
            in
            let accuracy v =
              100.
              *. Analysis.Metrics.accuracy
                   (Analysis.Metrics.confusion ~truth
                      ~verdicts:
                        (List.map
                           (fun (k, (x : Refill.Classify.verdict)) ->
                             (k, x.cause))
                           v))
            in
            (refined, accuracy verdicts, accuracy refined))
      in
      let s = !summary in
      ( [
          ("packets", int_num s.packets);
          ("logged_events", int_num s.logged_events);
          ("inferred_events", int_num s.inferred_events);
          ("skipped_events", int_num s.skipped_events);
          ("gf_events", int_num gs.events);
          ("gf_logged", int_num gs.logged);
          ("gf_inferred", int_num gs.inferred);
          ("gf_relaxed", int_num gs.relaxed);
          ("verdicts", breakdown verdicts);
          ("refined", breakdown refined);
          ("acc_raw", J.Str (Printf.sprintf "%.1f" acc_raw));
          ("acc_refined", J.Str (Printf.sprintf "%.1f" acc_refined));
        ],
        gs )
  in
  write_json (Filename.concat dir "reference.json") check;
  let self = self_times () in
  [
    ("log_io.busy_s", num (self "log_io"));
    ("log_io.minor_words", num load_gc.minor);
    ("reconstruct.busy_s", num (self "reconstruct"));
    ("reconstruct.minor_words", num recon_gc.minor);
    ("reconstruct.inferred_events", int_num !summary.inferred_events);
    ("classify.busy_s", num (self "classify"));
    ("global_flow.busy_s", num (self "global_flow"));
    ("global_flow.major_words", num merge_gc.major);
    ("global_flow.relaxed", int_num gs.relaxed);
    ("analysis.busy_s", num (self "analysis"));
    ("trace.uncovered_frac", num (uncovered_frac "batch"));
  ]

(* -- serve-1225: serve --shards 1 --checkpoint ... ----------------------------- *)

(* The daemon under test runs one shard: with two, `refill serve` can die
   with CamlinternalLazy.Undefined (Stream.Sharded.create never calls
   Protocol.precompute_fsms, so shard workers force its lazy tables
   concurrently).  The sharded layer is timed in a replay of its own. *)
let serve_shards = 1
let replay_shards = 2
let checkpoint_interval = 0.5
let saturated_checkpoint_interval = 60.

(* Single-domain replay of the frames without a final flush: the lines a
   live server's subscriber must receive, in order, and for each line the
   index of the frame whose feed evicted it (its eviction trigger) and the
   records fed by then. *)
let serve_reference dir ~sink ~watermark frames =
  let lines = ref [] in
  let cur = ref 0 and fed = ref 0 in
  let d =
    Refill_serve.Driver.create
      ~config:(stream_config ~watermark ~shards:1)
      ~sink
      ~emit:(fun e -> lines := (Refill_serve.Emit.line e, !cur, !fed) :: !lines)
      ()
  in
  let arena = Logsys.Arena.create () in
  Array.iteri
    (fun i payload ->
      cur := i;
      Logsys.Arena.clear arena;
      fed := !fed + Logsys.Arena.decode_segment_into arena payload;
      d.feed_arena (Logsys.Arena.slice_all arena))
    frames;
  ignore (d.summary ());
  let lines = Array.of_list (List.rev !lines) in
  let write name field =
    let oc = open_out_bin (Filename.concat dir name) in
    Array.iter (fun x -> output_string oc (field x ^ "\n")) lines;
    close_out oc
  in
  write "reference.lines" (fun (l, _, _) -> l);
  write "reference.trigger" (fun (_, f, _) -> string_of_int f);
  lines

type inproc = {
  lines : string;  (** Every emitted line, newline-terminated. *)
  acked : int;  (** Records counted by the final ack. *)
  wall : float;  (** First send to final ack. *)
  server : (string * J.t) list;  (** Server-layer metrics, when traced. *)
}

(* The in-process server fed the saturated pass over loopback.  Traced, its
   emit sink times each write as a span and the on_segment hook stamps when
   each segment leaves the ingest queue.  Untraced, it has neither: that
   pass is the base of trace.overhead_ratio. *)
let serve_in_process dir ~sink ~watermark ~traced frames =
  let n = Array.length frames in
  let ckpt = Filename.concat dir "inproc.ckpt" in
  if Sys.file_exists ckpt then Sys.remove ckpt;
  let root = if traced then fresh_sid () else 0 in
  let t_root = now () in
  let lines = Buffer.create (1 lsl 20) in
  let write l =
    Buffer.add_string lines l;
    Buffer.add_char lines '\n'
  in
  let emit =
    {
      Refill_serve.Emit.write =
        (if traced then fun l -> span_under root "emit.write" (fun () -> write l)
         else write);
      close = ignore;
    }
  in
  let exits = Array.make n 0. and exited = ref 0 in
  let on_segment () =
    if !exited < n then exits.(!exited) <- now ();
    incr exited
  in
  let counter c = Obs.Metrics.Counter.value c in
  let module T = Refill_serve.Telemetry in
  let frames0 = counter T.frames_total and bytes0 = counter T.bytes_total in
  let stalls0 = counter T.backpressure_stalls_total in
  let srv =
    match
      Refill_serve.Server.start
        {
          Refill_serve.Server.default_config with
          checkpoint = Some ckpt;
          (* Like the daemon of a saturated pass: no periodic checkpoint
             falls inside the pass. *)
          checkpoint_interval = saturated_checkpoint_interval;
          stream = stream_config ~watermark ~shards:serve_shards;
          sink;
          emit;
          on_segment = (if traced then Some on_segment else None);
        }
    with
    | Ok s -> s
    | Error e -> failwith (Refill.Error.message e)
  in
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.connect fd
    (Unix.ADDR_INET (Unix.inet_addr_loopback, Refill_serve.Server.port srv));
  Refill_serve.Wire.send_client_greeting fd;
  ignore (Refill_serve.Wire.expect_server_greeting fd);
  let t_first = now () in
  let sender =
    Thread.create
      (fun () ->
        Array.iter
          (fun p -> Refill_serve.Wire.write_frame fd ~typ:Refill_serve.Wire.frame_data p)
          frames;
        Refill_serve.Wire.write_frame fd ~typ:Refill_serve.Wire.frame_end Bytes.empty)
      ()
  in
  let acks = Array.make n 0. in
  for i = 0 to n - 1 do
    ignore (Refill_serve.Wire.read_ack fd);
    acks.(i) <- now ()
  done;
  let final = Refill_serve.Wire.read_ack fd in
  let t_last = now () in
  Thread.join sender;
  Unix.close fd;
  ignore (Refill_serve.Server.stop srv);
  if traced then close_span root "serve.inproc" 0 t_root;
  let waits =
    List.init (min n !exited) (fun i -> 1000. *. Float.max 0. (exits.(i) -. acks.(i)))
  in
  {
    lines = Buffer.contents lines;
    acked = final.Refill_serve.Wire.records;
    wall = t_last -. t_first;
    server =
      [
        ("ingest.queue_wait_ms_p99", num (percentile 0.99 waits));
        ("server.backpressure_stalls",
          int_num (counter T.backpressure_stalls_total - stalls0));
        ("wire.frames", int_num (counter T.frames_total - frames0));
        ("wire.bytes", int_num (counter T.bytes_total - bytes0));
      ];
  }

(* Replay of the same frames through the layers the server's ingest thread
   calls: decode into an arena, feed the driver, checkpoint at the server's
   cadence.  With one shard (the daemon's configuration) every layer is
   timed; with [replay_shards] only the sharded feed is, and each line's
   release is compared with the single-domain emission. *)
let serve_replay dir ~sink ~watermark ~shards frames
    (reference : (string * int * int) array) =
  let feed_layer = if shards = 1 then "stream.feed" else "sharded.feed" in
  let layer name f = if shards = 1 || name = feed_layer then span name f else f () in
  let root = Printf.sprintf "serve.replay%d" shards in
  let ckpt = Filename.concat dir "replay.ckpt" in
  let fed = ref 0 and lags = ref [] and emitted = ref 0 and emit_bytes = ref 0 in
  let emit_words = ref 0. in
  let lines = Buffer.create (1 lsl 20) in
  let emit (e : Refill.Stream.emitted) =
    layer "emit" (fun () ->
        let w0 = Gc.minor_words () in
        let l = Refill_serve.Emit.line e in
        Buffer.add_string lines l;
        Buffer.add_char lines '\n';
        emit_bytes := !emit_bytes + String.length l + 1;
        emit_words := !emit_words +. (Gc.minor_words () -. w0));
    (if !emitted < Array.length reference then
       let _, _, ref_fed = reference.(!emitted) in
       lags := float_of_int (!fed - ref_fed) :: !lags);
    incr emitted
  in
  let ckpt_ms = ref [] in
  let checkpoint (d : Refill_serve.Driver.t) =
    let t0 = now () in
    layer "checkpoint" (fun () ->
        match d.checkpoint_file ckpt with
        | Ok () -> ()
        | Error e -> failwith (Refill.Error.message e));
    ckpt_ms := (1000. *. (now () -. t0)) :: !ckpt_ms
  in
  let feed_gc = gc_acc () in
  let summary = ref None in
  span root (fun () ->
      let d =
        Refill_serve.Driver.create
          ~config:(stream_config ~watermark ~shards)
          ~sink ~emit ()
      in
      let arena = Logsys.Arena.create () in
      let last_ckpt = ref (now ()) in
      Array.iter
        (fun payload ->
          let k =
            layer "codec" (fun () ->
                Logsys.Arena.clear arena;
                Logsys.Arena.decode_segment_into arena payload)
          in
          fed := !fed + k;
          layer feed_layer (fun () ->
              counted feed_gc (fun () ->
                  d.feed_arena (Logsys.Arena.slice_all arena)));
          if now () -. !last_ckpt >= checkpoint_interval then begin
            checkpoint d;
            last_ckpt := now ()
          end)
        frames;
      checkpoint d;
      summary := Some (layer feed_layer (fun () -> d.summary ())));
  let s = Option.get !summary in
  let self = self_times () in
  let metrics =
    if shards > 1 then
      [
        ("sharded.feed_s", num (self "sharded.feed"));
        ("sharded.release_lag_records_p99", num (percentile 0.99 !lags));
      ]
    else
      [
        ("codec.decode_s", num (self "codec"));
        ("stream.feed_s", num (self "stream.feed"));
        (* The emit calls run inside the feed; their allocation is not the
           stream's. *)
        ("stream.minor_words", num (feed_gc.minor -. !emit_words));
        ("stream.minor_collections", int_num feed_gc.collections);
        ("stream.peak_frontier_events", int_num s.peak_frontier_events);
        ("stream.evictions", int_num s.evictions);
        ("checkpoint.count", int_num (List.length !ckpt_ms));
        ("checkpoint.busy_s", num (self "checkpoint"));
        ("checkpoint.max_ms", num (List.fold_left Float.max 0. !ckpt_ms));
        ("emit.busy_s", num (self "emit"));
        ("emit.bytes", int_num !emit_bytes);
        ("trace.uncovered_frac", num (uncovered_frac root));
      ]
  in
  (Buffer.contents lines, metrics)

(* In-process passes of each kind; trace.overhead_ratio compares their
   median walls. *)
let inproc_rounds = 3

let serve dir ~traced =
  let sink = meta_int dir "sink" in
  let watermark = meta_int dir "watermark" in
  let records = meta_int dir "records" in
  let frames = read_frames dir in
  let reference = serve_reference dir ~sink ~watermark frames in
  if not traced then []
  else begin
    let expected = read_file (Filename.concat dir "reference.lines") in
    (* Untraced and traced passes alternate, so a drift in the host's speed
       falls on both sides of the ratio alike. *)
    let rounds =
      List.init inproc_rounds (fun _ ->
          let plain = serve_in_process dir ~sink ~watermark ~traced:false frames in
          let timed = serve_in_process dir ~sink ~watermark ~traced:true frames in
          (plain, timed))
    in
    let passes = List.concat_map (fun (p, t) -> [ p; t ]) rounds in
    let median_wall pick = percentile 0.5 (List.map (fun r -> (pick r).wall) rounds) in
    let last_timed = snd (List.nth rounds (inproc_rounds - 1)) in
    let replay_lines, replay =
      serve_replay dir ~sink ~watermark ~shards:serve_shards frames reference
    in
    (* The serve reference above ran single-domain, which forced Protocol's
       lazy tables; force them here all the same, as Reconstruct.run does
       before it spawns domains. *)
    Refill.Protocol.precompute_fsms ();
    let sharded_lines, sharded =
      serve_replay dir ~sink ~watermark ~shards:replay_shards frames reference
    in
    [
      ("check.inproc_lines", J.Bool (List.for_all (fun p -> p.lines = expected) passes));
      ("check.inproc_acked", J.Bool (List.for_all (fun p -> p.acked = records) passes));
      ("check.replay_lines", J.Bool (replay_lines = expected));
      ("check.sharded_lines", J.Bool (sharded_lines = expected));
      ("trace.overhead_ratio", num (median_wall snd /. median_wall fst));
    ]
    @ last_timed.server @ replay @ sharded
  end

(* -- entry -------------------------------------------------------------------- *)

let () =
  match Array.to_list Sys.argv |> List.tl with
  | [ "frames"; seed; scale; dir ] -> frames (int_of_string seed) scale dir
  | [ "trace"; workload; dir; traced ] ->
      let traced = traced = "1" in
      let metrics =
        match workload with
        | "batch-30d" -> batch dir
        | "serve-1225" -> serve dir ~traced
        | w -> failwith ("unknown workload " ^ w)
      in
      if traced then begin
        write_json (Filename.concat dir "layers.json") metrics;
        write_trace (Filename.concat dir "trace.json")
      end
  | _ ->
      prerr_endline
        "usage: tool.exe frames SEED full|smoke DIR | tool.exe trace \
         WORKLOAD DIR 0|1";
      exit 2
