/**
 * @file
 * Layout induction: hardware instructions define the packing layout.
 *
 * The paper's central insight (Section IV-A): when each thread quantizes
 * and packs the fragment values *it already holds* after an ldmatrix load,
 * the packed words implicitly preserve the Tensor-Core interleaved layout.
 * A consumer kernel that mirrors the same instruction configuration
 * (ldmatrix variant, mma variant, warp tiling) unpacks values that are
 * already in valid MMA register positions — no global reshape.
 *
 * This module makes that statement executable. An InducedLayout maps
 *   (k-tile, n-tile-group, lane, register-pair, tile-within-group)
 * to the logical (row, col) coordinates of a B operand, and assigns every
 * packed 32-bit unit a canonical storage slot. The Residual Kernel writes
 * through the map; the Packing Kernel reads through the same map. A
 * mismatched producer (e.g. the naive "continuous packing" baseline that
 * stores codes in row-major token order) yields exactly the misaligned
 * registers of Fig. 3b.
 *
 * One 32-bit unit holds, for a fixed lane and register-pair slot, the codes
 * of R consecutive N-tiles (R = 16/bits per 16-bit lane): extraction pair p
 * of the unit is the half2 register (slot values at tile p) that mma.sync
 * consumes directly.
 */
#ifndef BITDEC_LAYOUT_INDUCED_LAYOUT_H
#define BITDEC_LAYOUT_INDUCED_LAYOUT_H

#include <cstdint>
#include <string>
#include <vector>

#include "gpusim/fragment.h"
#include "layout/tile.h"

namespace bitdec::layout {

/** Identifies one packed 32-bit unit within a K/V block. */
struct UnitId
{
    int ktile;  //!< which 16-row K tile (hidden-dim tile for Keys)
    int ngroup; //!< which group of R consecutive N tiles
    int lane;   //!< warp lane that owns the unit
    int pair;   //!< register-pair slot: 0 = (b0,b1), 1 = (b2,b3)
};

/** Logical matrix coordinate of one code inside a unit. */
struct CodeCoord
{
    int row; //!< row in the (K x N) operand matrix
    int col; //!< column in the operand matrix
};

/**
 * Induced packing layout for a B operand of shape [k_rows x n_cols].
 *
 * k_rows and n_cols must be multiples of the MMA tile extents; n_cols must
 * additionally be a multiple of pn * R so every unit is full — that is
 * exactly the residual-block alignment Eq. 1 guarantees.
 */
class InducedLayout
{
  public:
    /**
     * @param tiling warp tiling (fixes the mma variant)
     * @param bits   code width (4 or 2)
     * @param k_rows operand rows (K dimension of the MMA)
     * @param n_cols operand columns (N dimension)
     */
    InducedLayout(const WarpTiling& tiling, int bits, int k_rows, int n_cols);

    /**
     * Why a @p k_rows x @p n_cols operand cannot take this layout (empty
     * when it can): K rows tile by the MMA K extent, N columns by Pn * R.
     * The constructor panics with this reason.
     */
    static std::string misfit(const WarpTiling& tiling, int bits, int k_rows,
                              int n_cols);

    /** Codes per 32-bit unit (2 lanes x R fields). */
    int codesPerUnit() const { return 32 / bits_; }

    /** N-tiles covered by one unit (R = 16 / bits). */
    int tilesPerUnit() const { return 16 / bits_; }

    /** Register pairs per lane per tile (2 for m16n8k16 B fragments). */
    int pairsPerLane() const { return pairs_per_lane_; }

    /** Number of 16-row K tiles. */
    int numKTiles() const { return k_tiles_; }

    /** Number of N-tile groups (each spanning pn * R columns). */
    int numNGroups() const { return n_groups_; }

    /** Total packed 32-bit units in the block. */
    std::size_t numUnits() const;

    /** Canonical flat storage slot of a unit. */
    std::size_t unitSlot(const UnitId& id) const;

    /**
     * Logical coordinate of logical-code index @p i of unit @p id.
     * Codes are ordered (tile 0: lo, hi), (tile 1: lo, hi), ... — the order
     * in which extraction pairs emerge from the lop3 fast path.
     */
    CodeCoord codeCoord(const UnitId& id, int i) const;

    /** Inverse: the unit and code index that hold coordinate (row, col). */
    void locate(int row, int col, UnitId& id_out, int& code_out) const;

    /** Bit width of the codes. */
    int bits() const { return bits_; }

    /** The warp tiling this layout was induced from. */
    const WarpTiling& tiling() const { return tiling_; }

  private:
    WarpTiling tiling_;
    int bits_;
    int k_rows_;
    int n_cols_;
    int k_tiles_;
    int n_groups_;
    int pairs_per_lane_;
};

/**
 * Packs a quantized B-operand code matrix [k_rows x n_cols] into induced-
 * layout units (the Residual Kernel's store pattern). Within each unit the
 * fields follow quant::PackOrder::Interleaved, which is what makes the
 * lop3 extraction emit ready-to-use half2 registers.
 */
std::vector<std::uint32_t> packInduced(const InducedLayout& layout,
                                       const Tensor<std::uint8_t>& codes);

/**
 * Naive continuous packing (the ablation baseline): codes stored row-major
 * in token order, 32/bits per word, no layout awareness.
 */
std::vector<std::uint32_t> packContinuous(int bits,
                                          const Tensor<std::uint8_t>& codes);

/**
 * Unpacks induced-layout units back to a code matrix (reference inverse;
 * the Packing Kernel instead consumes units register-by-register).
 */
Tensor<std::uint8_t> unpackInduced(const InducedLayout& layout,
                                   const std::vector<std::uint32_t>& units);

} // namespace bitdec::layout

#endif // BITDEC_LAYOUT_INDUCED_LAYOUT_H
