use cras_core::{
    ExtentMap, ParityGeometry, ParityState, Stream, VolumeExtent, PARITY_STRIPE_BYTES,
};
use cras_disk::VolumeId;
use cras_ufs::Extent;

fn ve(vol: u32, file_offset: u64, disk_block: u64, nblocks: u32) -> VolumeExtent {
    VolumeExtent {
        volume: VolumeId(vol),
        extent: Extent {
            file_offset,
            disk_block,
            nblocks,
        },
    }
}

#[test]
fn tail_block_rounded_degraded_read() {
    let group = 4u32;
    let sb = PARITY_STRIPE_BYTES;
    let total = 7 * sb + 1000;
    let geom = ParityGeometry::new(0, group, sb, total);
    let extents: Vec<VolumeExtent> = (0..geom.data_units())
        .map(|k| {
            ve(
                geom.data_volume(k).0,
                k * sb,
                geom.data_file_index(k) * (sb / 512),
                geom.unit_len(k).div_ceil(512) as u32,
            )
        })
        .collect();
    let pbase = geom.rows() * (sb / 512);
    let parity_maps: Vec<Vec<VolumeExtent>> = (0..group)
        .map(|v| {
            let bytes = geom.parity_bytes_on(v);
            if bytes == 0 {
                return Vec::new();
            }
            vec![ve(v, 0, pbase, (bytes / 512) as u32)]
        })
        .collect();
    let ps = ParityState::new(geom, parity_maps);
    let k = geom.data_units() - 1; // tail unit
    let fail = geom.data_volume(k);
    // What the interval planner passes: run end rounded up to a block.
    let lo = k * sb;
    let hi = k * sb + geom.unit_len(k).div_ceil(512) * 512;
    assert!(hi > total, "precondition: rounded end exceeds total");
    let failed = vec![false; group as usize];
    let runs = Stream::parity_recon_runs(&ExtentMap::new(extents), &ps, lo, hi, fail, &failed);
    assert!(runs.is_some());
}
