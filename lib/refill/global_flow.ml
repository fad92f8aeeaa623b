(* The network-wide merge is the pipeline stage that sees every event at
   once (~1.5M items on the 30-day CitySee rung), so its data layout is
   flat and index-based throughout, and its hot loops allocate nothing:

   - items live in one array filled by two counted passes over the flows
     (no per-flow cons lists, no [Array.of_list]);
   - packet identities are interned to dense ints ([pid]s) in a flat
     open-addressing {!Prelude.Int_table} over int-packed [(origin, seq)]
     keys; the [(packet, node)] alignment slots use a second one, and each
     item remembers its slot, so the CSR fill does no lookups;
   - hard edges (per-packet flow order) are consecutive chains, stored as
     a single-successor array; soft edges (cross-packet node-log order)
     are a CSR adjacency built in two counted passes, offsets filled in
     place;
   - the per-node log alignment that discovers soft edges touches disjoint
     state per node, so it fans out across domains via {!Par};
   - emission is Kahn's algorithm over two {!Prelude.Id_heap}s (flat
     arrays of int ids, priorities read from the anchor array, nothing
     boxed per push or pop): the main heap of ready events, and a stall
     heap holding only the events that are hard-ready but soft-blocked,
     keyed lexicographically by [(anchor, id)] — O(log n) per relaxation
     where the original implementation rescanned all n items per soft
     cycle (O(n^2) worst case).

   The emission order is bit-identical to the straightforward
   list-and-hashtable implementation this replaced (the test suite keeps a
   copy of it as an oracle): the main heap receives the same pushes in the
   same sequence, and at every stall the stall heap's live entries are
   exactly the hard-ready events not yet emitted, so its [(anchor, id)]
   minimum is the old linear scan's smallest-anchor-then-smallest-id
   choice. *)

module Obs = Refill_obs

type stats = { events : int; logged : int; inferred : int; relaxed : int }

let h_seconds =
  Obs.Metrics.Histogram.v "refill_global_flow_seconds"
    ~help:"Wall time to merge all per-packet flows into the global flow."

let c_events =
  Obs.Metrics.Counter.v "refill_global_flow_events_total"
    ~help:"Events merged into network-wide flows."

let c_relaxed =
  Obs.Metrics.Counter.v "refill_global_flow_relaxed_total"
    ~help:
      "Cross-packet node-log constraints dropped during merges (concurrency, \
       not error)."

let c_stalls =
  Obs.Metrics.Counter.v "refill_global_flow_stall_recoveries_total"
    ~help:"Soft-cycle stalls broken by releasing a hard-ready event."

(* Merge-side provenance mechanisms; the engine-side ones (logged, intra,
   inter) are counted by Reconstruct under the same metric name. *)
let c_prov_stall =
  Obs.Metrics.Counter.v "refill_provenance_events_total"
    ~help:"Events emitted per provenance mechanism (provenance-enabled runs)."
    ~labels:[ ("mechanism", Provenance.mechanism_name Provenance.Stall_recovery) ]

let c_prov_carry =
  Obs.Metrics.Counter.v "refill_provenance_events_total"
    ~help:"Events emitted per provenance mechanism (provenance-enabled runs)."
    ~labels:[ ("mechanism", Provenance.mechanism_name Provenance.Anchor_carry) ]

(* Packet interning.  Origins and seqs are small nonnegative ints for
   every logger-produced record (the same observation Collected's index
   relies on), so the common case packs them into one int key of a flat
   {!Prelude.Int_table}; anything exotic (hand-built logs) falls back to a
   tuple-keyed table.  Lookups return [-1] for an absent packet. *)
let dense_limit = 1 lsl 28

type interner = {
  dense : Prelude.Int_table.t;
  exotic : (int * int, int) Hashtbl.t;
  mutable n_pids : int;
}

let interner_create n_hint =
  {
    dense = Prelude.Int_table.create n_hint;
    exotic = Hashtbl.create 8;
    n_pids = 0;
  }

let is_dense ~origin ~seq =
  origin >= 0 && origin < dense_limit && seq >= 0 && seq < dense_limit

let pid_intern t ~origin ~seq =
  let pid =
    if is_dense ~origin ~seq then
      Prelude.Int_table.find_or_add t.dense ((origin lsl 28) lor seq) t.n_pids
    else
      match Hashtbl.find_opt t.exotic (origin, seq) with
      | Some pid -> pid
      | None ->
          Hashtbl.add t.exotic (origin, seq) t.n_pids;
          t.n_pids
  in
  if pid = t.n_pids then t.n_pids <- pid + 1;
  pid

(* Lookup without interning — absent keys mean "no constraint", exactly as
   a missing queue did in the hashtable implementation. *)
let pid_find t ~origin ~seq =
  if is_dense ~origin ~seq then
    Prelude.Int_table.find t.dense ((origin lsl 28) lor seq)
  else
    match Hashtbl.find_opt t.exotic (origin, seq) with
    | Some pid -> pid
    | None -> -1

(* A tiny growable int buffer for the per-node edge lists (edges are
   appended as flattened [src; dst] pairs). *)
type ibuf = { mutable data : int array; mutable len : int }

let ibuf_create () = { data = Array.make 64 0; len = 0 }

let ibuf_push2 b x y =
  if b.len + 2 > Array.length b.data then begin
    let grown = Array.make (2 * Array.length b.data) 0 in
    Array.blit b.data 0 grown 0 b.len;
    b.data <- grown
  end;
  b.data.(b.len) <- x;
  b.data.(b.len + 1) <- y;
  b.len <- b.len + 2

(* CSR offsets in place, without a separate fill-cursor array: on entry
   [off.(k + 1)] holds run [k]'s length; [csr_starts] turns that into run
   starts, the fill advances [off.(k)] through run [k] (ending at run
   [k + 1]'s start), and [csr_restore] shifts the starts back. *)
let csr_starts off =
  for k = 1 to Array.length off - 1 do
    off.(k) <- off.(k) + off.(k - 1)
  done

let csr_restore off =
  for k = Array.length off - 1 downto 1 do
    off.(k) <- off.(k - 1)
  done;
  off.(0) <- 0

let merge_untimed ?jobs ?emit_prov collected ~(flows : Flow.t array)
    ~emit:emit_item =
  (* ---- Pass 1: count items and intern every flow's packet. ---- *)
  let n_flows = Array.length flows in
  let interner = interner_create n_flows in
  let flow_pid = Array.make n_flows 0 in
  let n = ref 0 in
  Array.iteri
    (fun fi (f : Flow.t) ->
      flow_pid.(fi) <- pid_intern interner ~origin:f.origin ~seq:f.seq;
      n := !n + List.length f.items)
    flows;
  let n = !n in
  if n = 0 then { events = 0; logged = 0; inferred = 0; relaxed = 0 }
  else begin
    let dummy =
      match Array.find_opt (fun (f : Flow.t) -> f.items <> []) flows with
      | Some f -> List.hd f.items
      | None -> assert false
    in
    (* ---- Pass 2: flat fill.  Ids are assigned in flow order, so each
       packet's hard chain is a run of consecutive ids; [last_of_pid]
       extends the chain across flows that share a packet key, mirroring
       the per-packet linearization exactly. ---- *)
    let items = Array.make n dummy in
    let packet_of = Array.make n 0 in
    let pos_of = Array.make n 0 in
    let anchors = Array.make n Float.nan in
    let hard_succ = Array.make n (-1) in
    let hard_in = Array.make n 0 in
    let logged = ref 0 in
    let last_of_pid = Array.make interner.n_pids (-1) in
    (* Provenance side-cars, allocated only when the caller listens.  Each
       item's base provenance comes from its flow's side-car when the flows
       were reconstructed with provenance on; otherwise it is synthesized
       from the item alone (no evidence, lowest confidence for inferred). *)
    let want_prov = emit_prov <> None in
    let synth_prov (item : _ Engine.item) =
      if item.Engine.inferred then
        Provenance.with_confidence Provenance.Low
          (Provenance.make2 Provenance.Intra_inference
             ~src:item.Engine.entered ~dst:item.Engine.entered ~e1:(-1)
             ~e2:(-1))
      else
        Provenance.make2 Provenance.Logged ~src:item.Engine.entered
          ~dst:item.Engine.entered ~e1:(-1) ~e2:(-1)
    in
    let prov_of =
      if want_prov then Array.make n (synth_prov dummy) else [||]
    in
    let aligned = if want_prov then Array.make n false else [||] in
    let cursor = ref 0 in
    Array.iteri
      (fun fi (f : Flow.t) ->
        let pid = flow_pid.(fi) in
        let fprov = f.prov in
        let n_fprov = Array.length fprov in
        List.iteri
          (fun pos item ->
            let id = !cursor in
            incr cursor;
            items.(id) <- item;
            packet_of.(id) <- pid;
            pos_of.(id) <- pos;
            if want_prov then
              prov_of.(id) <-
                (if pos < n_fprov then fprov.(pos) else synth_prov item);
            if not item.Engine.inferred then incr logged;
            let prev = last_of_pid.(pid) in
            if prev >= 0 && prev <> id then begin
              hard_succ.(prev) <- id;
              hard_in.(id) <- hard_in.(id) + 1
            end;
            last_of_pid.(pid) <- id)
          f.items)
      flows;
    (* ---- Soft-constraint candidates: for each (packet, node), the
       logged items whose payloads can be aligned with that node's log, in
       flow order.  One pass interns each eligible item's slot (payload
       packets are interned too: a payload key that never appeared as a
       flow key still forms its own queue) and remembers it, so the CSR
       fill needs no second lookup.  The node component of the slot key
       partitions slots across nodes, which is what lets the alignment
       below run per-node in parallel. ---- *)
    let n_nodes = Logsys.Collected.n_nodes collected in
    let slots = Prelude.Int_table.create (n / 3) in
    let slot_of = Array.make n (-1) in
    for id = 0 to n - 1 do
      let item = items.(id) in
      match item.Engine.payload with
      | Some r
        when (not item.Engine.inferred)
             && item.Engine.node >= 0
             && item.Engine.node < n_nodes ->
          let qpid = pid_intern interner ~origin:r.origin ~seq:r.pkt_seq in
          slot_of.(id) <-
            Prelude.Int_table.find_or_add slots
              ((qpid * n_nodes) + item.Engine.node)
              (Prelude.Int_table.length slots)
      | Some _ | None -> ()
    done;
    let n_slots = Prelude.Int_table.length slots in
    let q_off = Array.make (n_slots + 1) 0 in
    Array.iter
      (fun s -> if s >= 0 then q_off.(s + 1) <- q_off.(s + 1) + 1)
      slot_of;
    csr_starts q_off;
    let q_ids = Array.make (max 1 q_off.(n_slots)) 0 in
    for id = 0 to n - 1 do
      let slot = slot_of.(id) in
      if slot >= 0 then begin
        q_ids.(q_off.(slot)) <- id;
        q_off.(slot) <- q_off.(slot) + 1
      end
    done;
    csr_restore q_off;
    (* ---- Per-node alignment: walk each node's log, matching records
       against the head of their (packet, node) candidate run; a match
       fixes the item's anchor (its log-position fraction) and chains a
       soft edge from the previously matched item on that node.  Each
       worker touches only its node's slots, cursors and matched item ids,
       so nodes fan out across domains; interner and slot reads are
       lookups into tables no longer being written. ---- *)
    let q_cursor = Array.make (max 1 n_slots) 0 in
    (* The slot of packet [(origin, seq)] on [node] while its run still
       has an unmatched candidate, else [-1]. *)
    let head_of ~node ~origin ~seq =
      let qpid = pid_find interner ~origin ~seq in
      if qpid < 0 then -1
      else
        let slot = Prelude.Int_table.find slots ((qpid * n_nodes) + node) in
        if slot < 0 || q_cursor.(slot) >= q_off.(slot + 1) - q_off.(slot)
        then -1
        else slot
    in
    let align node =
      let log = Logsys.Collected.node_log collected node in
      let len = float_of_int (max 1 (Array.length log)) in
      let edges = ibuf_create () in
      let last = ref (-1) in
      Array.iteri
        (fun log_idx (r : Logsys.Record.t) ->
          let slot = head_of ~node ~origin:r.origin ~seq:r.pkt_seq in
          if slot >= 0 then begin
            let id = q_ids.(q_off.(slot) + q_cursor.(slot)) in
            match items.(id).Engine.payload with
            | Some r' when Logsys.Record.equal r r' ->
                q_cursor.(slot) <- q_cursor.(slot) + 1;
                anchors.(id) <- float_of_int log_idx /. len;
                (* Distinct ids per node: safe to write from the per-node
                   workers, like [anchors] above. *)
                if want_prov then aligned.(id) <- true;
                if !last >= 0 then ibuf_push2 edges !last id;
                last := id
            | Some _ | None -> ()
          end)
        log;
      edges
    in
    let jobs =
      match jobs with Some j -> max 1 j | None -> Par.default_jobs ()
    in
    let jobs = if n < Par.min_parallel_items then 1 else jobs in
    let node_edges =
      Par.map_array ~jobs align (Array.init n_nodes (fun i -> i))
    in
    (* ---- Soft CSR.  A soft edge opposing a hard (same-packet) path is a
       concurrent pair whose linearization chose the other interleaving:
       dropped and counted, not an error.  Surviving edges are laid out in
       discovery order (nodes ascending, log order within a node), which
       is the successor order emission traverses. ---- *)
    let relaxed = ref 0 in
    let soft_in = Array.make n 0 in
    let soft_off = Array.make (n + 1) 0 in
    let iter_edges f =
      Array.iter
        (fun (edges : ibuf) ->
          let k = ref 0 in
          while !k < edges.len do
            f edges.data.(!k) edges.data.(!k + 1);
            k := !k + 2
          done)
        node_edges
    in
    let opposed a b =
      packet_of.(a) = packet_of.(b) && pos_of.(b) <= pos_of.(a)
    in
    iter_edges (fun a b ->
        if a <> b then
          if opposed a b then incr relaxed
          else begin
            soft_off.(a + 1) <- soft_off.(a + 1) + 1;
            soft_in.(b) <- soft_in.(b) + 1
          end);
    csr_starts soft_off;
    let soft_adj = Array.make (max 1 soft_off.(n)) 0 in
    iter_edges (fun a b ->
        if a <> b && not (opposed a b) then begin
          soft_adj.(soft_off.(a)) <- b;
          soft_off.(a) <- soft_off.(a) + 1
        end);
    csr_restore soft_off;
    (* ---- Anchor inheritance for unmatched items: nearest logged
       neighbour in their flow, following first (backward pass), then
       preceding (forward pass), else 0. ---- *)
    let carry = Array.make interner.n_pids Float.nan in
    for id = n - 1 downto 0 do
      let pid = packet_of.(id) in
      if Float.is_nan anchors.(id) then begin
        if not (Float.is_nan carry.(pid)) then anchors.(id) <- carry.(pid)
      end
      else carry.(pid) <- anchors.(id)
    done;
    Array.fill carry 0 (Array.length carry) Float.nan;
    for id = 0 to n - 1 do
      let pid = packet_of.(id) in
      if Float.is_nan anchors.(id) then
        anchors.(id) <-
          (if Float.is_nan carry.(pid) then 0. else carry.(pid))
      else carry.(pid) <- anchors.(id)
    done;
    (* ---- Deterministic Kahn's algorithm over two flat id heaps keyed
       by anchor.  The main heap holds ready events, FIFO among equal
       anchors.  The stall heap holds the events that became hard-ready
       (every same-packet predecessor emitted) while soft in-edges were
       still pending, keyed (anchor, id), so breaking a soft cycle is a pop
       instead of a full rescan.  A hard-ready event with no soft in-edge
       goes straight to the main heap, which always emits it before it can
       run empty; so at every stall the stall heap's live entries are
       exactly the hard-ready events not yet emitted.  Entries go stale
       when their event is emitted through the main heap — pops skip those
       lazily. ---- *)
    let module Pq = Prelude.Id_heap in
    let main = Pq.create anchors in
    let stall = Pq.create anchors in
    let main_seq = ref 0 in
    let push_main id =
      Pq.push main ~tie:!main_seq id;
      incr main_seq
    in
    let hard_ready id =
      if soft_in.(id) = 0 then push_main id else Pq.push stall ~tie:id id
    in
    let emitted = Array.make n false in
    let emitted_count = ref 0 in
    let stalls = ref 0 in
    for id = 0 to n - 1 do
      if hard_in.(id) = 0 then hard_ready id
    done;
    let n_stall_prov = ref 0 in
    let n_carry_prov = ref 0 in
    let emit ~stalled id =
      emitted.(id) <- true;
      emit_item items.(id);
      (match emit_prov with
      | None -> ()
      | Some f ->
          let base = prov_of.(id) in
          let pv =
            if stalled then begin
              incr n_stall_prov;
              Provenance.with_mechanism Provenance.Stall_recovery base
            end
            else if
              (not items.(id).Engine.inferred) && not aligned.(id)
            then begin
              (* A logged event whose record never aligned with its node's
                 log: its global position was carried from a neighbour's
                 anchor, not evidenced by the log itself. *)
              incr n_carry_prov;
              Provenance.with_mechanism Provenance.Anchor_carry base
            end
            else base
          in
          f pv);
      incr emitted_count;
      let succ = hard_succ.(id) in
      if succ >= 0 then begin
        hard_in.(succ) <- hard_in.(succ) - 1;
        if hard_in.(succ) = 0 then hard_ready succ
      end;
      for k = soft_off.(id) to soft_off.(id + 1) - 1 do
        let succ = soft_adj.(k) in
        soft_in.(succ) <- soft_in.(succ) - 1;
        if hard_in.(succ) = 0 && soft_in.(succ) = 0 && not emitted.(succ)
        then push_main succ
      done
    in
    while !emitted_count < n do
      let id = Pq.pop main in
      if id >= 0 then begin
        if not emitted.(id) then emit ~stalled:false id
      end
      else begin
        (* A cycle through soft edges: release the (anchor, id)-smallest
           event whose hard prerequisites are met by dropping its
           remaining soft in-edges.  Hard edges are per-packet chains
           (acyclic), so the stall heap always holds a live entry. *)
        let id = ref (Pq.pop stall) in
        while !id >= 0 && emitted.(!id) do
          id := Pq.pop stall
        done;
        let id = !id in
        assert (id >= 0);
        relaxed := !relaxed + soft_in.(id);
        soft_in.(id) <- 0;
        incr stalls;
        emit ~stalled:true id
      end
    done;
    let stats =
      {
        events = n;
        logged = !logged;
        inferred = n - !logged;
        relaxed = !relaxed;
      }
    in
    Par.with_obs_lock (fun () ->
        Obs.Metrics.Counter.inc ~by:n c_events;
        Obs.Metrics.Counter.inc ~by:!relaxed c_relaxed;
        Obs.Metrics.Counter.inc ~by:!stalls c_stalls;
        if !n_stall_prov > 0 then
          Obs.Metrics.Counter.inc ~by:!n_stall_prov c_prov_stall;
        if !n_carry_prov > 0 then
          Obs.Metrics.Counter.inc ~by:!n_carry_prov c_prov_carry);
    stats
  end

let merge ?jobs ?emit_prov collected ~flows ~emit =
  let run () =
    let t0 = Obs.Span.now_us () in
    let stats = merge_untimed ?jobs ?emit_prov collected ~flows ~emit in
    Par.with_obs_lock (fun () ->
        Obs.Metrics.Histogram.observe h_seconds
          ((Obs.Span.now_us () -. t0) /. 1e6));
    stats
  in
  if Obs.Span.enabled () then
    Obs.Span.with_ ~name:"refill.global_flow"
      ~attrs:[ ("flows", string_of_int (Array.length flows)) ]
      run
  else run ()

(* -- Incremental merge mode ------------------------------------------------ *)

(* The streaming pipeline never holds a [Collected] snapshot: records
   arrive in segments and flows are emitted at eviction time, in eviction
   order.  The accumulator rebuilds both batch inputs — per-node logs in
   arrival order (= each node's write order, since any valid stream merge
   preserves it) and the flow array re-sorted to packet-key order (the
   order {!Reconstruct.run} emits) — so [finish] reproduces the batch
   merge exactly: same interner ids, same anchors, same heap tie-breaks. *)
module Incremental = struct
  type t = {
    mutable logs_rev : Logsys.Record.t list array;  (* per node, newest first *)
    mutable flows_rev : Flow.t list;
    mutable n_flows : int;
  }

  let create ?(n_nodes = 0) () =
    { logs_rev = Array.make (max 1 n_nodes) []; flows_rev = []; n_flows = 0 }

  let ensure_node t node =
    if node >= Array.length t.logs_rev then begin
      let grown =
        Array.make (max (node + 1) (2 * Array.length t.logs_rev)) []
      in
      Array.blit t.logs_rev 0 grown 0 (Array.length t.logs_rev);
      t.logs_rev <- grown
    end

  let add_records t records =
    Array.iter
      (fun (r : Logsys.Record.t) ->
        if r.node >= 0 then begin
          ensure_node t r.node;
          t.logs_rev.(r.node) <- r :: t.logs_rev.(r.node)
        end)
      records

  let add_flow t flow =
    t.flows_rev <- flow :: t.flows_rev;
    t.n_flows <- t.n_flows + 1

  let finish ?jobs ?emit_prov t ~emit =
    let node_logs =
      Array.map (fun l -> Array.of_list (List.rev l)) t.logs_rev
    in
    let collected = Logsys.Collected.of_node_logs node_logs in
    (* Stable sort restores the batch emission order (key-ascending);
       duplicate keys — an evicted packet's late fragments — keep their
       eviction order, which is also their arrival order. *)
    let flows =
      Array.of_list
        (List.stable_sort
           (fun (a : Flow.t) (b : Flow.t) ->
             compare (a.origin, a.seq) (b.origin, b.seq))
           (List.rev t.flows_rev))
    in
    merge ?jobs ?emit_prov collected ~flows ~emit
end

