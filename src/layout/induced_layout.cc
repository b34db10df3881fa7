#include "layout/induced_layout.h"

#include "common/logging.h"
#include "quant/packing.h"

namespace bitdec::layout {

InducedLayout::InducedLayout(const WarpTiling& tiling, int bits, int k_rows,
                             int n_cols)
    : tiling_(tiling), bits_(bits), k_rows_(k_rows), n_cols_(n_cols)
{
    const std::string why = misfit(tiling, bits, k_rows, n_cols);
    BITDEC_ASSERT(why.empty(), why);
    const int pk = tiling.pk();
    const int pn = tiling.pn();
    const int r = tilesPerUnit();
    k_tiles_ = k_rows / pk;
    n_groups_ = n_cols / (pn * r);
    pairs_per_lane_ = pk / 8; // 2 register pairs for k16, 1 for k8
}

std::string
InducedLayout::misfit(const WarpTiling& tiling, int bits, int k_rows,
                      int n_cols)
{
    if (bits != 2 && bits != 4)
        return "induced layout supports 4/2 bits";
    const int pk = tiling.pk();
    const int pn_r = tiling.pn() * (16 / bits); // Pn * R
    if (k_rows % pk != 0)
        return detail::concat("K rows ", k_rows,
                              " not a multiple of the MMA K extent ", pk);
    if (n_cols % pn_r != 0)
        return detail::concat("N cols ", n_cols, " not a multiple of Pn*R = ",
                              pn_r, " (residual block misalignment)");
    return {};
}

std::size_t
InducedLayout::numUnits() const
{
    return static_cast<std::size_t>(k_tiles_) *
           static_cast<std::size_t>(n_groups_) * sim::kWarpSize *
           static_cast<std::size_t>(pairs_per_lane_);
}

std::size_t
InducedLayout::unitSlot(const UnitId& id) const
{
    BITDEC_ASSERT(id.ktile >= 0 && id.ktile < k_tiles_, "ktile out of range");
    BITDEC_ASSERT(id.ngroup >= 0 && id.ngroup < n_groups_,
                  "ngroup out of range");
    BITDEC_ASSERT(id.lane >= 0 && id.lane < sim::kWarpSize,
                  "lane out of range");
    BITDEC_ASSERT(id.pair >= 0 && id.pair < pairs_per_lane_,
                  "pair out of range");
    return ((static_cast<std::size_t>(id.ktile) *
                 static_cast<std::size_t>(n_groups_) +
             static_cast<std::size_t>(id.ngroup)) *
                sim::kWarpSize +
            static_cast<std::size_t>(id.lane)) *
               static_cast<std::size_t>(pairs_per_lane_) +
           static_cast<std::size_t>(id.pair);
}

CodeCoord
InducedLayout::codeCoord(const UnitId& id, int i) const
{
    BITDEC_ASSERT(i >= 0 && i < codesPerUnit(), "code index out of range");
    const int t = id.lane % 4;  // thread-in-group: row pair selector
    const int g = id.lane / 4;  // group: column within the tile
    const int p = i / 2;        // tile index within the unit's group
    const int hi = i % 2;       // low/high row of the register pair

    const int row = id.ktile * tiling_.pk() + id.pair * 8 + 2 * t + hi;
    const int col = (id.ngroup * tilesPerUnit() + p) * tiling_.pn() + g;
    return {row, col};
}

void
InducedLayout::locate(int row, int col, UnitId& id_out, int& code_out) const
{
    BITDEC_ASSERT(row >= 0 && row < k_rows_ && col >= 0 && col < n_cols_,
                  "coordinate out of range");
    const int pk = tiling_.pk();
    const int r = tilesPerUnit();

    id_out.ktile = row / pk;
    const int row_in = row % pk;
    id_out.pair = row_in / 8;
    const int t = (row_in % 8) / 2;
    const int hi = row_in % 2;
    const int g = col % tiling_.pn();
    const int ntile = col / tiling_.pn();
    id_out.ngroup = ntile / r;
    const int p = ntile % r;
    id_out.lane = g * 4 + t;
    code_out = 2 * p + hi;
}

std::vector<std::uint32_t>
packInduced(const InducedLayout& layout, const Tensor<std::uint8_t>& codes)
{
    std::vector<std::uint32_t> units(layout.numUnits());
    std::uint8_t buf[16];
    for (int kt = 0; kt < layout.numKTiles(); kt++) {
        for (int ng = 0; ng < layout.numNGroups(); ng++) {
            for (int lane = 0; lane < sim::kWarpSize; lane++) {
                for (int pr = 0; pr < layout.pairsPerLane(); pr++) {
                    const UnitId id{kt, ng, lane, pr};
                    for (int i = 0; i < layout.codesPerUnit(); i++) {
                        const CodeCoord c = layout.codeCoord(id, i);
                        buf[i] = codes.at(static_cast<std::size_t>(c.row),
                                          static_cast<std::size_t>(c.col));
                    }
                    units[layout.unitSlot(id)] = quant::packWord(
                        buf, layout.bits(), quant::PackOrder::Interleaved);
                }
            }
        }
    }
    return units;
}

std::vector<std::uint32_t>
packContinuous(int bits, const Tensor<std::uint8_t>& codes)
{
    const int per_word = quant::codesPerWord(bits);
    const std::size_t total = codes.dim(0) * codes.dim(1);
    BITDEC_ASSERT(total % static_cast<std::size_t>(per_word) == 0,
                  "matrix size not a multiple of the word capacity");
    std::vector<std::uint32_t> words(total / static_cast<std::size_t>(per_word));
    std::uint8_t buf[16];
    std::size_t idx = 0;
    for (std::size_t w = 0; w < words.size(); w++) {
        for (int i = 0; i < per_word; i++, idx++) {
            buf[i] = codes.at(idx / codes.dim(1), idx % codes.dim(1));
        }
        words[w] = quant::packWord(buf, bits, quant::PackOrder::Linear);
    }
    return words;
}

Tensor<std::uint8_t>
unpackInduced(const InducedLayout& layout,
              const std::vector<std::uint32_t>& units)
{
    BITDEC_ASSERT(units.size() == layout.numUnits(),
                  "unit buffer size mismatch");
    Tensor<std::uint8_t> codes(
        {static_cast<std::size_t>(layout.numKTiles() * layout.tiling().pk()),
         static_cast<std::size_t>(layout.numNGroups() *
                                  layout.tilesPerUnit() *
                                  layout.tiling().pn())});
    std::uint8_t buf[16];
    for (int kt = 0; kt < layout.numKTiles(); kt++) {
        for (int ng = 0; ng < layout.numNGroups(); ng++) {
            for (int lane = 0; lane < sim::kWarpSize; lane++) {
                for (int pr = 0; pr < layout.pairsPerLane(); pr++) {
                    const UnitId id{kt, ng, lane, pr};
                    quant::unpackWord(units[layout.unitSlot(id)],
                                      layout.bits(),
                                      quant::PackOrder::Interleaved, buf);
                    for (int i = 0; i < layout.codesPerUnit(); i++) {
                        const CodeCoord c = layout.codeCoord(id, i);
                        codes.at(static_cast<std::size_t>(c.row),
                                 static_cast<std::size_t>(c.col)) = buf[i];
                    }
                }
            }
        }
    }
    return codes;
}

} // namespace bitdec::layout
