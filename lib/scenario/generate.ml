module Graph = Vini_topo.Graph
module Time = Vini_sim.Time
module Rng = Vini_std.Rng
module Json = Vini_std.Json

type kind =
  | Waxman of { n : int; alpha : float; beta : float; bandwidth_bps : float }
  | Fat_tree of { k : int; bandwidth_bps : float }
  | Backbone of { pops : int; degree : int; bandwidth_bps : float }

type spec = { kind : kind; seed : int }

let waxman ?(alpha = 0.4) ?(beta = 0.6) ?(bandwidth_bps = 1e9) n =
  Waxman { n; alpha; beta; bandwidth_bps }

let fat_tree ?(bandwidth_bps = 10e9) k = Fat_tree { k; bandwidth_bps }

let backbone ?(degree = 3) ?(bandwidth_bps = 10e9) pops =
  Backbone { pops; degree; bandwidth_bps }

let kind_name = function
  | Waxman _ -> "waxman"
  | Fat_tree _ -> "fat-tree"
  | Backbone _ -> "backbone"

let label spec =
  match spec.kind with
  | Waxman { n; _ } -> Printf.sprintf "waxman-%d-s%d" n spec.seed
  | Fat_tree { k; _ } -> Printf.sprintf "fat-tree-%d-s%d" k spec.seed
  | Backbone { pops; _ } -> Printf.sprintf "backbone-%d-s%d" pops spec.seed

(* ---- the shared geometric conventions ----------------------------------- *)

(* 5 us of fiber per km with a 100 us floor, like the Waxman dataset. *)
let delay_of_km km = Time.of_sec_f (Float.max 100e-6 (km *. 5e-6))

let weight_of_delay d = Stdlib.max 1 (int_of_float (Time.to_ms_f d *. 100.0))

let mk_link ~bw ~km i j =
  let delay = delay_of_km km in
  {
    Graph.a = min i j;
    b = max i j;
    bandwidth_bps = bw;
    delay;
    loss = 0.0;
    weight = weight_of_delay delay;
  }

(* ---- Waxman ------------------------------------------------------------- *)

let gen_waxman ~seed ~n ~alpha ~beta ~bw =
  if n < 1 then invalid_arg "Generate: waxman n must be positive";
  if alpha <= 0.0 || alpha > 1.0 then invalid_arg "Generate: waxman alpha";
  if beta <= 0.0 then invalid_arg "Generate: waxman beta";
  let rng = Rng.create seed in
  let km_square = 4000.0 in
  let xs = Array.init n (fun _ -> Rng.float rng 1.0) in
  let ys = Array.init n (fun _ -> Rng.float rng 1.0) in
  let dist i j = Float.hypot (xs.(i) -. xs.(j)) (ys.(i) -. ys.(j)) in
  let have = Hashtbl.create (4 * n) in
  let links = ref [] in
  let add i j =
    let key = (min i j, max i j) in
    if i <> j && not (Hashtbl.mem have key) then begin
      Hashtbl.add have key ();
      links := mk_link ~bw ~km:(dist i j *. km_square) i j :: !links
    end
  in
  (* Seeded random spanning tree first: connected by construction. *)
  for i = 1 to n - 1 do
    add i (Rng.int rng i)
  done;
  let l = Float.sqrt 2.0 in
  for i = 0 to n - 1 do
    for j = i + 1 to n - 1 do
      let p = alpha *. exp (-.dist i j /. (beta *. l)) in
      if Rng.float rng 1.0 < p then add i j
    done
  done;
  Graph.create ~names:(Array.init n (Printf.sprintf "n%d")) ~links:!links

(* ---- k-ary fat-tree ----------------------------------------------------- *)

let gen_fat_tree ~k ~bw =
  if k < 2 || k mod 2 <> 0 then
    invalid_arg "Generate: fat-tree arity must be even and >= 2";
  let h = k / 2 in
  let cores = h * h in
  (* Node ids: cores first, then per pod [h] aggregation then [h] edge. *)
  let core c = c in
  let agg p j = cores + (p * 2 * h) + j in
  let edge p j = cores + (p * 2 * h) + h + j in
  let names =
    Array.init
      (cores + (k * 2 * h))
      (fun i ->
        if i < cores then Printf.sprintf "core%d" i
        else
          let r = i - cores in
          let p = r / (2 * h) and s = r mod (2 * h) in
          if s < h then Printf.sprintf "agg%d-%d" p s
          else Printf.sprintf "edge%d-%d" p (s - h))
  in
  (* Datacenter spans: 5 us per hop regardless of tier. *)
  let km = 1.0 in
  let links = ref [] in
  for p = 0 to k - 1 do
    for j = 0 to h - 1 do
      (* Aggregation j uplinks to its core group. *)
      for c = 0 to h - 1 do
        links := mk_link ~bw ~km (agg p j) (core ((j * h) + c)) :: !links
      done;
      (* Every edge switch in the pod connects to every aggregation. *)
      for e = 0 to h - 1 do
        links := mk_link ~bw ~km (agg p j) (edge p e) :: !links
      done
    done
  done;
  Graph.create ~names ~links:!links

(* ---- synthetic continental backbone ------------------------------------- *)

let gen_backbone ~seed ~pops ~degree ~bw =
  if pops < 2 then invalid_arg "Generate: backbone needs at least 2 PoPs";
  if degree < 1 then invalid_arg "Generate: backbone degree must be >= 1";
  let rng = Rng.create seed in
  (* Metro clusters on a 4500 x 3000 km continent; each PoP belongs to a
     cluster and sits a normal-jittered ~80 km from its center. *)
  let n_clusters = Stdlib.max 4 (pops / 16) in
  let cx = Array.init n_clusters (fun _ -> Rng.float rng 4500.0) in
  let cy = Array.init n_clusters (fun _ -> Rng.float rng 3000.0) in
  let xs = Array.make pops 0.0 and ys = Array.make pops 0.0 in
  for i = 0 to pops - 1 do
    let c = Rng.int rng n_clusters in
    xs.(i) <- cx.(c) +. Rng.normal rng ~mean:0.0 ~stddev:80.0;
    ys.(i) <- cy.(c) +. Rng.normal rng ~mean:0.0 ~stddev:80.0
  done;
  let dist i j = Float.hypot (xs.(i) -. xs.(j)) (ys.(i) -. ys.(j)) in
  let have = Hashtbl.create (4 * pops) in
  let links = ref [] in
  let add i j =
    let key = (min i j, max i j) in
    if i <> j && not (Hashtbl.mem have key) then begin
      Hashtbl.add have key ();
      links := mk_link ~bw ~km:(dist i j) i j :: !links
    end
  in
  (* k-nearest-neighbour pass: each PoP links to its [degree] nearest
     peers, ties broken by id — deterministic. *)
  for i = 0 to pops - 1 do
    let order = Array.init pops Fun.id in
    Array.sort
      (fun a b ->
        let c = Float.compare (dist i a) (dist i b) in
        if c <> 0 then c else compare a b)
      order;
    let taken = ref 0 and j = ref 0 in
    while !taken < degree && !j < pops do
      if order.(!j) <> i then begin
        add i order.(!j);
        incr taken
      end;
      incr j
    done
  done;
  (* Augmentation: nearest-neighbour graphs can fragment into islands.
     Find components and stitch each non-root component to the closest
     PoP outside it — repeat until one component remains.  Component
     discovery is in id order, so the stitches are deterministic. *)
  let parent = Array.init pops Fun.id in
  let rec find x = if parent.(x) = x then x else find parent.(x) in
  let union a b =
    let ra = find a and rb = find b in
    if ra <> rb then parent.(Stdlib.max ra rb) <- Stdlib.min ra rb
  in
  List.iter (fun l -> union l.Graph.a l.Graph.b) !links;
  let rec stitch () =
    let root0 = find 0 in
    let island =
      let r = ref (-1) in
      for i = pops - 1 downto 0 do
        if find i <> root0 then r := find i
      done;
      !r
    in
    if island >= 0 then begin
      (* Closest cross-component pair touching this island. *)
      let best = ref (infinity, -1, -1) in
      for i = 0 to pops - 1 do
        if find i = island then
          for j = 0 to pops - 1 do
            if find j <> island then begin
              let d = dist i j in
              let bd, _, _ = !best in
              if d < bd then best := (d, i, j)
            end
          done
      done;
      let _, i, j = !best in
      add i j;
      union i j;
      stitch ()
    end
  in
  stitch ();
  Graph.create
    ~names:(Array.init pops (Printf.sprintf "pop%03d"))
    ~links:!links

let generate spec =
  let g =
    match spec.kind with
    | Waxman { n; alpha; beta; bandwidth_bps } ->
        gen_waxman ~seed:spec.seed ~n ~alpha ~beta ~bw:bandwidth_bps
    | Fat_tree { k; bandwidth_bps } -> gen_fat_tree ~k ~bw:bandwidth_bps
    | Backbone { pops; degree; bandwidth_bps } ->
        gen_backbone ~seed:spec.seed ~pops ~degree ~bw:bandwidth_bps
  in
  Graph.relabel (label spec) g

(* ---- vini.topo/1 -------------------------------------------------------- *)

let schema_version = "vini.topo/1"

let params_json = function
  | Waxman { n; alpha; beta; bandwidth_bps } ->
      Json.Obj
        [
          ("n", Json.Num (float_of_int n));
          ("alpha", Json.Num alpha);
          ("beta", Json.Num beta);
          ("bandwidth_bps", Json.Num bandwidth_bps);
        ]
  | Fat_tree { k; bandwidth_bps } ->
      Json.Obj
        [
          ("k", Json.Num (float_of_int k));
          ("bandwidth_bps", Json.Num bandwidth_bps);
        ]
  | Backbone { pops; degree; bandwidth_bps } ->
      Json.Obj
        [
          ("pops", Json.Num (float_of_int pops));
          ("degree", Json.Num (float_of_int degree));
          ("bandwidth_bps", Json.Num bandwidth_bps);
        ]

let to_json spec g =
  let links =
    List.map
      (fun (l : Graph.link) ->
        Json.Obj
          [
            ("a", Json.Num (float_of_int l.Graph.a));
            ("b", Json.Num (float_of_int l.Graph.b));
            ("bandwidth_bps", Json.Num l.Graph.bandwidth_bps);
            ("delay_ns", Json.Num (float_of_int l.Graph.delay));
            ("loss", Json.Num l.Graph.loss);
            ("weight", Json.Num (float_of_int l.Graph.weight));
          ])
      (Graph.links g)
  in
  Json.Obj
    [
      ("schema", Json.Str schema_version);
      ( "generator",
        Json.Obj
          [
            ("kind", Json.Str (kind_name spec.kind));
            ("seed", Json.Num (float_of_int spec.seed));
            ("params", params_json spec.kind);
          ] );
      ("label", Json.Str (Graph.label g));
      ( "nodes",
        Json.Arr
          (List.map (fun i -> Json.Str (Graph.name g i)) (Graph.nodes g)) );
      ("links", Json.Arr links);
    ]

let document spec = Json.to_string (to_json spec (generate spec))

let of_json j =
  let ( let* ) = Result.bind in
  let field name v =
    match Json.member name v with
    | Some x -> Ok x
    | None -> Error (Printf.sprintf "vini.topo: missing %S" name)
  in
  let num name v =
    let* x = field name v in
    match Json.to_float x with
    | Some f -> Ok f
    | None -> Error (Printf.sprintf "vini.topo: %S is not a number" name)
  in
  let* schema = field "schema" j in
  let* () =
    match Json.to_str schema with
    | Some s when s = schema_version -> Ok ()
    | Some s ->
        Error
          (Printf.sprintf "vini.topo: unsupported schema %S (expected %S)" s
             schema_version)
    | None -> Error "vini.topo: schema tag is not a string"
  in
  let* label =
    match Json.member "label" j with
    | Some (Json.Str s) -> Ok s
    | Some _ -> Error "vini.topo: label is not a string"
    | None -> Ok "loaded-topology"
  in
  let* nodes = field "nodes" j in
  let* names =
    match Json.to_list nodes with
    | None -> Error "vini.topo: nodes is not an array"
    | Some items ->
        List.fold_left
          (fun acc item ->
            let* acc = acc in
            match Json.to_str item with
            | Some s -> Ok (s :: acc)
            | None -> Error "vini.topo: node name is not a string")
          (Ok []) items
        |> Result.map (fun l -> Array.of_list (List.rev l))
  in
  let* links_json = field "links" j in
  let* links =
    match Json.to_list links_json with
    | None -> Error "vini.topo: links is not an array"
    | Some items ->
        List.fold_left
          (fun acc item ->
            let* acc = acc in
            let* a = num "a" item in
            let* b = num "b" item in
            let* bw = num "bandwidth_bps" item in
            let* delay_ns = num "delay_ns" item in
            let* loss = num "loss" item in
            let* weight = num "weight" item in
            Ok
              ({
                 Graph.a = int_of_float a;
                 b = int_of_float b;
                 bandwidth_bps = bw;
                 delay = int_of_float delay_ns;
                 loss;
                 weight = int_of_float weight;
               }
              :: acc))
          (Ok []) items
        |> Result.map List.rev
  in
  match Graph.create ~names ~links with
  | g -> Ok (Graph.relabel label g)
  | exception Invalid_argument msg -> Error ("vini.topo: " ^ msg)

let load_file path =
  match In_channel.with_open_bin path In_channel.input_all with
  | exception Sys_error msg -> Error msg (* already names the file *)
  | text ->
      Result.map_error (Printf.sprintf "%s: %s" path)
        (Result.bind (Json.of_string text) of_json)

let parse_kind name ~n ?alpha ?beta ?degree ?bandwidth_bps () =
  match name with
  | "waxman" -> Ok (waxman ?alpha ?beta ?bandwidth_bps n)
  | "fat-tree" | "fattree" -> Ok (fat_tree ?bandwidth_bps n)
  | "backbone" -> Ok (backbone ?degree ?bandwidth_bps n)
  | _ ->
      Error
        (Printf.sprintf
           "unknown generator %S (expected waxman | fat-tree | backbone)" name)
