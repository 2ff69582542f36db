type entry = { image : string; lsn : Oib_wal.Lsn.t }

type t = { pages : (int, entry) Hashtbl.t }

let create () = { pages = Hashtbl.create 256 }

let write t id entry = Hashtbl.replace t.pages id entry

let read t id = Hashtbl.find_opt t.pages id

let mem t id = Hashtbl.mem t.pages id

let remove t id = Hashtbl.remove t.pages id

let snapshot t = { pages = Hashtbl.copy t.pages }

let page_count t = Hashtbl.length t.pages

let max_page_id t = Hashtbl.fold (fun id _ acc -> max id acc) t.pages (-1)
