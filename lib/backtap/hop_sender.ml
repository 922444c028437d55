(* In-flight cell state.  Pendings are pooled: a sender allocates one
   per concurrently-inflight cell and recycles it on feedback, so the
   steady-state forwarding path allocates no pending records, no timer
   entries and no callback closures — the two closures below ([timer]'s
   callback and [send_action]) are created once per pooled record and
   reused for every cell that passes through it. *)
type pending = {
  mutable cell : Tor_model.Cell.t;
  mutable hop_seq : int;
  mutable transmitted : bool;  (* has left this node's access link *)
  mutable sent_at : Engine.Time.t;  (* wire-departure instant *)
  mutable retransmitted : bool;
  mutable backoff : int;  (* doublings applied to the next RTO *)
  mutable attempts : int;  (* retransmissions of this cell so far *)
  mutable on_wire : bool;  (* did the current attempt reach the wire? *)
  mutable ack : (unit -> unit) option;
  mutable in_use : bool;  (* false once recycled into the pool *)
  (* Packet-id watermark of the current incarnation: the network's
     next packet id, stamped in [pump] before the first attempt is
     sent.  Every attempt of this incarnation gets an id >= the
     watermark; every packet of an earlier incarnation has a smaller
     one.  [transmit_done] uses it to reject stale wire-departure
     callbacks: a queued attempt's registration survives in the link's
     on_transmit table after feedback recycles this record (the link
     only discards it on tail drop or outage), so a leftover packet of
     a previous incarnation can still serialize later and fire
     [send_action] against the reused record. *)
  mutable wire_floor : int;
  (* One reusable clock per pending, serving as both the queued-drop
     watchdog and the retransmission timer — the two are never armed at
     once, so a single intrusive timer rearmed in place replaces the
     cancel-and-reschedule pair of the old design. *)
  mutable timer : Engine.Sim.Timer.t;
  (* Preallocated wire-departure callback handed to the switchboard on
     every attempt; receives the departing packet's id. *)
  mutable send_action : int -> unit;
}

type probe_event =
  | Wire_departure of {
      pkt_id : int;
      in_use : bool;
      wire_floor : int;
      applied : bool;
    }
  | Feedback of { hop_seq : int; next_hop_seq : int; known : bool }

(* Test-only escape hatch: checked law experiments flip this to
   re-create the pre-watermark behaviour (every wire-departure callback
   applied, stale or not) and watch the incarnation oracle catch it.
   Never set outside the harness. *)
let unsafe_disable_wire_floor = ref false

(* Jacobson/Karels estimator state, in seconds.  An all-float record is
   stored flat, so the per-feedback update allocates nothing; [srtt] is
   nan until the first sample. *)
type estimator = { mutable srtt : float; mutable rttvar : float }

type t = {
  sb : Tor_model.Switchboard.t;
  net : Netsim.Network.t;
  circuit : Tor_model.Circuit_id.t;
  succ : Netsim.Node_id.t;
  controller : Circuitstart.Controller.t;
  sim : Engine.Sim.t;
  rto_min : Engine.Time.t;
  rto_initial : Engine.Time.t;
  max_retries : int;
  backlog : (Tor_model.Cell.t * (unit -> unit) option) Queue.t;
  (* In-flight pendings, the one for [hop_seq] at [hop_seq land
     (capacity - 1)]; empty slots hold [vacant].  The array doubles
     whenever a new cell's slot is still held by a live one, so every
     live pending has its own slot however far its sequence numbers
     spread.  A slot answers for [hop_seq] only if its pending is in use
     with that very sequence number: stale and aliased feedback stays
     spurious. *)
  mutable inflight : pending array;
  mutable inflight_count : int;
  vacant : pending;
  mutable free : pending list;  (* recycled pendings *)
  mutable next_seq : int;
  mutable sent : int;
  mutable retx : int;
  mutable spurious : int;
  mutable feedbacks : int;  (* feedbacks accepted (matched an inflight cell) *)
  (* Passive observer of wire departures and feedbacks, for invariant
     oracles.  Must not call back into the sender. *)
  mutable probe : (probe_event -> unit) option;
  mutable aborted : bool;
  mutable on_abort : (unit -> unit) option;
  (* Bytes currently charged against the switchboard's per-circuit
     occupancy (backlog + in flight, at Wire.cell_size per cell).
     Credited cell-by-cell on feedback and wholesale on abort, so the
     relay's resource accounting always matches this sender's held
     state. *)
  mutable charged : int;
  est : estimator;
}

(* A pending that is never in use: the filler for empty inflight
   slots and the template of the pool's fresh records. *)
let blank_pending sim circuit =
  {
    cell = Tor_model.Cell.make circuit Tor_model.Cell.Destroy;
    hop_seq = -1;
    transmitted = false;
    sent_at = Engine.Time.zero;
    retransmitted = false;
    backoff = 0;
    attempts = 0;
    on_wire = false;
    ack = None;
    in_use = false;
    wire_floor = max_int;
    timer = Engine.Sim.Timer.create sim (fun () -> ());
    send_action = (fun _ -> ());
  }

let create ~sb ~circuit ~succ ~controller ?(rto_min = Engine.Time.ms 400)
    ?(rto_initial = Engine.Time.s 1) ?(max_retries = 8) () =
  if max_retries < 1 then invalid_arg "Hop_sender.create: max_retries must be positive";
  let net = Tor_model.Switchboard.network sb in
  let sim = Netsim.Network.sim net in
  let vacant = blank_pending sim circuit in
  {
    sb;
    net;
    circuit;
    succ;
    controller;
    sim;
    rto_min;
    rto_initial;
    max_retries;
    backlog = Queue.create ();
    inflight = Array.make 64 vacant;
    inflight_count = 0;
    vacant;
    free = [];
    next_seq = 0;
    sent = 0;
    retx = 0;
    spurious = 0;
    feedbacks = 0;
    probe = None;
    aborted = false;
    on_abort = None;
    charged = 0;
    est = { srtt = Float.nan; rttvar = 0. };
  }

let controller t = t.controller
let cwnd t = Circuitstart.Controller.cwnd t.controller
let inflight t = t.inflight_count
let queue_length t = Queue.length t.backlog
let cells_sent t = t.sent
let retransmissions t = t.retx
let spurious_feedback t = t.spurious
let feedback_received t = t.feedbacks
let next_hop_seq t = t.next_seq
let set_probe t f = t.probe <- f
let idle t = Queue.is_empty t.backlog && t.inflight_count = 0
let aborted t = t.aborted
let set_on_abort t f = t.on_abort <- Some f
let charged_bytes t = t.charged

let srtt t =
  if Float.is_nan t.est.srtt then None else Some (Engine.Time.of_sec_f t.est.srtt)

let rto t =
  if Float.is_nan t.est.srtt then t.rto_initial
  else
    let rto = Engine.Time.of_sec_f (t.est.srtt +. (4. *. t.est.rttvar)) in
    Engine.Time.max rto t.rto_min

let max_backoff = 6

(* The live pending for [hop_seq], or [vacant]. *)
let find_inflight t hop_seq =
  let p = t.inflight.(hop_seq land (Array.length t.inflight - 1)) in
  if p.in_use && p.hop_seq = hop_seq then p else t.vacant

let rec add_inflight t (p : pending) =
  let cap = Array.length t.inflight in
  let i = p.hop_seq land (cap - 1) in
  if t.inflight.(i).in_use then begin
    let grown = Array.make (2 * cap) t.vacant in
    Array.iter
      (fun (q : pending) -> if q.in_use then grown.(q.hop_seq land ((2 * cap) - 1)) <- q)
      t.inflight;
    t.inflight <- grown;
    add_inflight t p
  end
  else begin
    t.inflight.(i) <- p;
    t.inflight_count <- t.inflight_count + 1
  end

let remove_inflight t (p : pending) =
  t.inflight.(p.hop_seq land (Array.length t.inflight - 1)) <- t.vacant;
  t.inflight_count <- t.inflight_count - 1

(* Kill the sender: disarm every pending timer, drop all state.  Once
   aborted a sender accepts no submissions, transmits nothing and
   ignores feedback. *)
let abort t =
  if not t.aborted then begin
    t.aborted <- true;
    Array.iteri
      (fun i (p : pending) ->
        if p.in_use then begin
          Engine.Sim.Timer.cancel t.sim p.timer;
          p.in_use <- false;
          p.ack <- None;
          t.inflight.(i) <- t.vacant
        end)
      t.inflight;
    t.inflight_count <- 0;
    Queue.clear t.backlog;
    (* Release every byte still charged against the node's occupancy
       accounting in one move. *)
    if t.charged > 0 then begin
      let held = t.charged in
      t.charged <- 0;
      Tor_model.Switchboard.credit t.sb t.circuit held
    end
  end

(* Budget exhausted: the successor is unreachable (dead relay, cut
   link, or loss beyond what retransmission can mask).  Give up and
   tell the owner — retransmitting forever would spin the simulation
   without ever completing. *)
let trip t =
  if not t.aborted then begin
    abort t;
    match t.on_abort with Some f -> f () | None -> ()
  end

(* Put the cell on the wire.  All timing is anchored at the actual wire
   departure (the access link's serialization start): the RTT clock and
   the retransmission timer start there, and — on the first
   transmission only — [ack] fires there, because that instant is this
   node's act of forwarding (the predecessor's feedback is due then,
   not when the cell was merely queued).  The retransmission timer
   backs off exponentially: Karn's rule freezes the estimator during
   retransmissions, so without backoff an RTO below the loaded RTT
   would retransmit every cell forever (congestion collapse).  Each
   cell's retransmissions are bounded by [max_retries]; exhausting the
   budget trips the whole sender into its terminal aborted state. *)
let rec wire_send t (p : pending) =
  p.on_wire <- false;
  Tor_model.Switchboard.send_payload t.sb ~dst:t.succ ~size:Wire.cell_size
    ~on_transmit:p.send_action
    (Wire.Bt_cell { hop_seq = p.hop_seq; cell = p.cell });
  (* Still sitting in our own access link's queue: a tail drop there
     would never fire [send_action], so arm the watchdog so the cell is
     retried unless it makes it onto the wire in the meantime. *)
  if not p.on_wire then begin
    let delay = Engine.Time.mul_int (rto t) (1 lsl p.backoff) in
    Engine.Sim.Timer.arm_after t.sim p.timer delay
  end

(* The pending's timer fired: either the queued-drop watchdog (the
   attempt never reached the wire) or the retransmission timer (it did,
   but no feedback arrived in time).  Both mean the same thing —
   retransmit, or trip the sender once the budget is spent. *)
and on_timer t (p : pending) =
  if (not t.aborted) && p.in_use && find_inflight t p.hop_seq == p then begin
    if p.attempts >= t.max_retries then trip t
    else begin
      p.retransmitted <- true;
      p.backoff <- Stdlib.min max_backoff (p.backoff + 1);
      p.attempts <- p.attempts + 1;
      t.retx <- t.retx + 1;
      wire_send t p
    end
  end

(* Wire departure of an attempt: stop the watchdog, stamp the RTT
   clock, deliver the one-shot [ack], and rearm the same timer as the
   retransmission clock.  Guarded against stale firings (see
   [wire_floor]): a leftover registration from before this record was
   recycled — or one firing while the record sits idle in the pool —
   must be a no-op, or it would ack the wrong cell, consume its
   first-transmit flag, corrupt the RTT clock and rearm its timer.
   Any attempt of the current incarnation passes the watermark test,
   including a firing that happens synchronously inside [wire_send]'s
   send call (its id is the watermark itself or above). *)
and transmit_done t (p : pending) pkt_id =
  let lawful = p.in_use && pkt_id >= p.wire_floor in
  (* With the watermark disabled (harness fault injection) stale
     firings are applied anyway, re-creating the pre-fix bug the
     incarnation oracle exists to catch. *)
  let applied = lawful || (!unsafe_disable_wire_floor && p.in_use) in
  (match t.probe with
  | Some probe ->
      probe
        (Wire_departure { pkt_id; in_use = p.in_use; wire_floor = p.wire_floor; applied })
  | None -> ());
  if applied then begin
    p.on_wire <- true;
    Engine.Sim.Timer.cancel t.sim p.timer;
    let first = not p.transmitted in
    p.transmitted <- true;
    p.sent_at <- Engine.Sim.now t.sim;
    (if first then match p.ack with Some f -> f () | None -> ());
    let delay = Engine.Time.mul_int (rto t) (1 lsl p.backoff) in
    Engine.Sim.Timer.arm_after t.sim p.timer delay
  end

(* Take a pending from the pool, or build a fresh one (cold path: only
   when the inflight population reaches a new high).  The placeholder
   cell is never sent — [pump] overwrites it before use. *)
let alloc_pending t =
  match t.free with
  | p :: rest ->
      t.free <- rest;
      p
  | [] ->
      let p = blank_pending t.sim t.circuit in
      p.timer <- Engine.Sim.Timer.create t.sim (fun () -> on_timer t p);
      p.send_action <- (fun pkt_id -> transmit_done t p pkt_id);
      p

(* Return a pending to the pool.  The timer is disarmed eagerly, so a
   recycled record can never be fired by a stale clock.  [send_action]
   registrations for still-queued attempts cannot be withdrawn here —
   the link owns them — but [wire_floor] makes any such late firing a
   no-op, both while the record sits in the pool ([in_use] is false)
   and after it is reused (the stale packet's id is below the new
   incarnation's watermark). *)
let release t p =
  Engine.Sim.Timer.cancel t.sim p.timer;
  p.in_use <- false;
  p.ack <- None;
  t.free <- p :: t.free

(* Move backlog cells onto the wire while the window allows. *)
let rec pump t =
  if
    (not t.aborted)
    && t.inflight_count < Circuitstart.Controller.send_allowance t.controller
    && not (Queue.is_empty t.backlog)
  then begin
    let cell, ack = Queue.pop t.backlog in
    let hop_seq = t.next_seq in
    t.next_seq <- hop_seq + 1;
    t.sent <- t.sent + 1;
    let p = alloc_pending t in
    p.cell <- cell;
    p.hop_seq <- hop_seq;
    p.transmitted <- false;
    p.sent_at <- Engine.Sim.now t.sim;
    p.retransmitted <- false;
    p.backoff <- 0;
    p.attempts <- 0;
    p.ack <- ack;
    p.in_use <- true;
    (* Stamp the incarnation watermark before the first attempt: every
       packet this incarnation sends gets an id at or above it, every
       stale registration from a previous incarnation sits below. *)
    p.wire_floor <- Netsim.Network.next_packet_id t.net;
    add_inflight t p;
    wire_send t p;
    pump t
  end

let submit t ?ack cell =
  if not t.aborted then begin
    Queue.push (cell, ack) t.backlog;
    t.charged <- t.charged + Wire.cell_size;
    (* The charge can trip the node's OOM responder, which may abort
       this very sender re-entrantly (crediting the bytes back and
       clearing the backlog) — hence the second [aborted] check before
       pumping. *)
    Tor_model.Switchboard.charge t.sb t.circuit Wire.cell_size;
    if not t.aborted then pump t
  end

let sample_rtt t rtt_s =
  let e = t.est in
  if Float.is_nan e.srtt then begin
    e.srtt <- rtt_s;
    e.rttvar <- rtt_s /. 2.
  end
  else begin
    let err = rtt_s -. e.srtt in
    e.srtt <- e.srtt +. (0.125 *. err);
    e.rttvar <- (0.75 *. e.rttvar) +. (0.25 *. Float.abs err)
  end

let on_feedback t ~hop_seq =
  if not t.aborted then begin
    let p = find_inflight t hop_seq in
    let known = p != t.vacant in
    (match t.probe with
    | Some probe -> probe (Feedback { hop_seq; next_hop_seq = t.next_seq; known })
    | None -> ());
    if not known then t.spurious <- t.spurious + 1
    else begin
      t.feedbacks <- t.feedbacks + 1;
      remove_inflight t p;
      let retransmitted = p.retransmitted and sent_at = p.sent_at in
      release t p;
      t.charged <- t.charged - Wire.cell_size;
      Tor_model.Switchboard.credit t.sb t.circuit Wire.cell_size;
      let now = Engine.Sim.now t.sim in
      if not retransmitted then begin
        let rtt = Engine.Time.diff now sent_at in
        if Engine.Time.(rtt > Engine.Time.zero) then begin
          sample_rtt t (Engine.Time.to_sec_f rtt);
          (* If nothing is waiting locally, the window is not what
             limits this hop; rounds without pressure must not grow. *)
          let window_limited = not (Queue.is_empty t.backlog) in
          Circuitstart.Controller.on_feedback t.controller ~now ~rtt ~window_limited ()
        end
      end;
      pump t
    end
  end
