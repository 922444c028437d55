type t = {
  topo : Topology.t;
  (* route.(src).(dst) is the first link on the path, [None] if dst is
     unreachable or dst = src.  Forwarding reads the link straight from
     here: no adjacency lookup per packet. *)
  route : Link.t option array array;
  local : (Packet.t -> unit) option array;
  mutable undeliverable : int;
}

(* Dijkstra from every source.  Cost = propagation delay in ns, with one
   extra ns per hop so equal-delay routes prefer fewer hops (and ties
   are broken deterministically by node id via the priority queue's
   ordering). *)
let compute_routes topo =
  let n = Topology.node_count topo in
  let route = Array.make_matrix n n None in
  let nodes = Array.of_list (Topology.nodes topo) in
  let dijkstra src =
    let dist = Array.make n max_int in
    let prev = Array.make n (-1) in
    let visited = Array.make n false in
    let src_i = Node_id.to_int src in
    dist.(src_i) <- 0;
    let module Pq = Set.Make (struct
      type t = int * int

      let compare (d1, n1) (d2, n2) =
        match Int.compare d1 d2 with 0 -> Int.compare n1 n2 | c -> c
    end) in
    let pq = ref (Pq.singleton (0, src_i)) in
    while not (Pq.is_empty !pq) do
      let ((_, u) as min_elt) = Pq.min_elt !pq in
      pq := Pq.remove min_elt !pq;
      if not visited.(u) then begin
        visited.(u) <- true;
        List.iter
          (fun v_id ->
            let v = Node_id.to_int v_id in
            match Topology.link topo nodes.(u) v_id with
            | None -> ()
            | Some l ->
                let w = Engine.Time.to_ns (Link.delay l) + 1 in
                let alt = dist.(u) + w in
                if alt < dist.(v) then begin
                  dist.(v) <- alt;
                  prev.(v) <- u;
                  pq := Pq.add (alt, v) !pq
                end)
          (Topology.neighbors topo nodes.(u))
      end
    done;
    (* First hop toward each destination: walk prev back to src.  The
       destinations behind one neighbour share its [Some link]. *)
    let first = Array.make n None in
    List.iter
      (fun v -> first.(Node_id.to_int v) <- Topology.link topo src v)
      (Topology.neighbors topo src);
    for dst = 0 to n - 1 do
      if dst <> src_i && prev.(dst) >= 0 then begin
        let hop = ref dst in
        while prev.(!hop) <> src_i && prev.(!hop) >= 0 do
          hop := prev.(!hop)
        done;
        if prev.(!hop) = src_i then route.(src_i).(dst) <- first.(!hop)
      end
    done
  in
  Array.iter dijkstra nodes;
  route

let create topo =
  let n = Topology.node_count topo in
  let t =
    { topo; route = compute_routes topo; local = Array.make n None;
      undeliverable = 0 }
  in
  (* Claim every link: arriving packets are either delivered locally or
     forwarded along the precomputed route. *)
  let rec arrive node (p : Packet.t) =
    let node_i = Node_id.to_int node in
    if Node_id.equal node p.dst then
      match t.local.(node_i) with
      | Some f -> f p
      | None -> t.undeliverable <- t.undeliverable + 1
    else forward node p
  and forward node (p : Packet.t) =
    match t.route.(Node_id.to_int node).(Node_id.to_int p.dst) with
    | Some l -> Link.send l p
    | None ->
        failwith
          (Format.asprintf "Network: no route from %a to %a" Node_id.pp node
             Node_id.pp p.dst)
  in
  List.iter
    (fun l -> Link.set_receiver l (fun p -> arrive (Link.dst l) p))
    (Topology.links topo);
  t

let topology t = t.topo
let sim t = Topology.sim t.topo

let set_local_handler t n f = t.local.(Node_id.to_int n) <- Some f

let make_packet t ~src ~dst ~size payload =
  Packet.make (Topology.packet_ids t.topo) ~src ~dst ~size
    ~now:(Engine.Sim.now (sim t)) payload

let next_packet_id t = Packet.next_id (Topology.packet_ids t.topo)

let send t ?on_transmit (p : Packet.t) =
  let src_i = Node_id.to_int p.src and dst_i = Node_id.to_int p.dst in
  if src_i = dst_i then
    (* Loopback: deliver after the current event finishes, preserving
       event-driven semantics. *)
    ignore
      (Engine.Sim.schedule_now (sim t) (fun () ->
           (match on_transmit with Some f -> f p.id | None -> ());
           match t.local.(dst_i) with
           | Some f -> f p
           | None -> t.undeliverable <- t.undeliverable + 1))
  else
    match t.route.(src_i).(dst_i) with
    | Some l -> Link.send l ?on_transmit p
    | None ->
        failwith
          (Format.asprintf "Network.send: no route from %a to %a" Node_id.pp p.src
             Node_id.pp p.dst)

let path t a b =
  let a_i = Node_id.to_int a and b_i = Node_id.to_int b in
  if a_i = b_i then Some [ a ]
  else if Option.is_none t.route.(a_i).(b_i) then None
  else begin
    let rec walk node acc =
      if Node_id.to_int node = b_i then List.rev (node :: acc)
      else
        match t.route.(Node_id.to_int node).(b_i) with
        | Some l -> walk (Link.dst l) (node :: acc)
        | None -> assert false (* every node on a route reaches b *)
    in
    Some (walk a [])
  end

let hop_count t a b = Option.map (fun p -> List.length p - 1) (path t a b)

let path_delay t a b =
  match path t a b with
  | None -> None
  | Some nodes ->
      let rec total acc = function
        | x :: (y :: _ as rest) -> (
            match Topology.link t.topo x y with
            | None -> assert false
            | Some l -> total (Engine.Time.add acc (Link.delay l)) rest)
        | [ _ ] | [] -> acc
      in
      Some (total Engine.Time.zero nodes)

let undeliverable t = t.undeliverable
